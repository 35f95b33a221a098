// Property tests pitting the product fill_gaps against the branchy
// per-sample reference in tests/support, for every GapPolicy over NaN
// samples, gapless/all-valid/all-invalid masks, and leading and trailing
// gaps.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "amperebleed/core/preprocess.hpp"
#include "amperebleed/core/trace.hpp"
#include "amperebleed/util/rng.hpp"
#include "support/reference_fill_gaps.hpp"

namespace {

using namespace amperebleed;

void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  if (!got.empty()) {
    // memcmp: NaN payloads and signed zeros must match too.
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(double)),
              0);
  }
}

TEST(PreprocessSimd, FillGapsMatchesReferenceAllPolicies) {
  util::Rng rng(0xf17);
  for (const std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{8},
                              std::size_t{257}}) {
    std::vector<double> values(n);
    for (auto& v : values) v = rng.gaussian(0.0, 1.0);
    if (n > 2) values[1] = std::numeric_limits<double>::quiet_NaN();
    std::vector<std::vector<std::uint8_t>> masks;
    masks.push_back({});                                  // gapless
    masks.push_back(std::vector<std::uint8_t>(n, 1));     // all valid
    masks.push_back(std::vector<std::uint8_t>(n, 0));     // all invalid
    std::vector<std::uint8_t> alternating(n, 1);
    for (std::size_t i = 0; i < n; i += 2) alternating[i] = 0;
    masks.push_back(alternating);                         // leading gap too
    std::vector<std::uint8_t> trailing(n - 1, 1);
    trailing.push_back(0);
    masks.push_back(trailing);
    for (const auto& mask : masks) {
      for (const core::GapPolicy policy : core::kAllGapPolicies) {
        SCOPED_TRACE("n=" + std::to_string(n) + " mask_size=" +
                     std::to_string(mask.size()) + " policy=" +
                     std::string(core::gap_policy_name(policy)));
        expect_bitwise_equal(core::fill_gaps(values, mask, policy),
                             core::reference::fill_gaps(values, mask, policy));
      }
    }
  }
}

TEST(PreprocessSimd, FillGapsTraceOverloadGaplessFastPath) {
  core::Trace trace(core::Channel{}, sim::TimeNs{0}, sim::microseconds(100));
  for (int i = 0; i < 10; ++i) trace.push(1.0 + i * 0.5);
  ASSERT_TRUE(trace.validity().empty());
  const auto filled = core::fill_gaps(trace, core::GapPolicy::HoldLast);
  ASSERT_EQ(filled.size(), trace.size());
  for (std::size_t i = 0; i < filled.size(); ++i) {
    EXPECT_EQ(filled[i], trace.values()[i]);
  }
}

}  // namespace
