#pragma once
// The snapshot layout from before restore rebuilt the drift reference: a
// trained tenant with drift enabled ended its section in has-profile 1 and
// the obs::ReferenceProfile block. The decoder still reads that block and
// drops it; these writers make such files from a current image, so tests can
// pin the old bytes, recover from them and corrupt the block.

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

#include "amperebleed/ml/dataset.hpp"

namespace amperebleed::persist::reference {

/// The profile block the old writer put after has-profile 1 for a tenant
/// trained on `data`: ReferenceProfile::from_dataset(data, bins), field by
/// field, with each sketch's sum and sum of squares accumulated in row order
/// as StreamingSketch::observe does.
[[nodiscard]] std::string legacy_profile_block(const ml::Dataset& data,
                                               std::size_t bins);

/// `image` with each tenant section's payload replaced by edit(index,
/// payload); section lengths and CRCs are recomputed.
[[nodiscard]] std::string reframe_snapshot(
    std::string_view image,
    const std::function<std::string(std::size_t, std::string_view)>& edit);

/// `image` as the old writer wrote it with drift enabled: every trained
/// tenant's has-profile byte is 1 and its profile block (at `bins`) follows.
[[nodiscard]] std::string with_legacy_profiles(std::string_view image,
                                               std::size_t bins);

}  // namespace amperebleed::persist::reference
