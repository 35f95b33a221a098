#include "support/legacy_snapshot.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "amperebleed/obs/drift.hpp"
#include "amperebleed/persist/codec.hpp"
#include "amperebleed/persist/state.hpp"

namespace amperebleed::persist::reference {

std::string legacy_profile_block(const ml::Dataset& data, std::size_t bins) {
  const obs::ReferenceProfile profile =
      obs::ReferenceProfile::from_dataset(data, bins);
  Encoder enc;
  enc.u64(profile.rows);
  enc.u64_vec(profile.class_counts);
  enc.u64(profile.dims());
  for (std::size_t d = 0; d < profile.dims(); ++d) {
    const obs::StreamingSketch& sketch = profile.feature_sketches[d];
    // The legacy layout's moment fields, computed from the column.
    double sum = 0.0;
    double sum_sq = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < data.size(); ++r) {
      const double v = data.row(r)[d];
      sum += v;
      sum_sq += v * v;
      min = std::min(min, v);
      max = std::max(max, v);
    }
    enc.f64(sketch.lo());
    enc.f64(sketch.hi());
    enc.u64_vec(sketch.counts());
    enc.u64(sketch.total());
    enc.f64(sum);
    enc.f64(sum_sq);
    enc.f64(min);
    enc.f64(max);
    enc.f64_vec(profile.feature_samples[d]);
  }
  return enc.take();
}

std::string reframe_snapshot(
    std::string_view image,
    const std::function<std::string(std::size_t, std::string_view)>& edit) {
  constexpr std::uint32_t kMeta = section_tag("META");
  constexpr std::uint32_t kTenant = section_tag("TENT");
  FileReader reader(image, kFileMagic, kFormatVersion, kKindSnapshot,
                    "reframe");
  FileWriter writer(kFileMagic, kFormatVersion, kKindSnapshot);
  const std::string_view meta = reader.section(kMeta);
  writer.section(kMeta, meta);
  Decoder counts(meta, "reframe/META");
  (void)counts.u64();
  const std::uint64_t tenants = counts.u64();
  for (std::uint64_t t = 0; t < tenants; ++t) {
    writer.section(kTenant, edit(t, reader.section(kTenant)));
  }
  reader.expect_end();
  return writer.take();
}

std::string with_legacy_profiles(std::string_view image, std::size_t bins) {
  const ServiceSnapshot snap = decode_snapshot(image, "legacy");
  return reframe_snapshot(
      image, [&](std::size_t t, std::string_view payload) {
        std::string out(payload);
        const TenantState& tenant = snap.tenants[t];
        if (tenant.trained) {
          out.back() = 1;  // has-profile, written last
          out += legacy_profile_block(tenant.data, bins);
        }
        return out;
      });
}

}  // namespace amperebleed::persist::reference
