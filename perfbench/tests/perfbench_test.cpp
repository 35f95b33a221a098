// The benchmark's own tests: the percentile helpers, and determinism of
// every workload's counts across thread-pool sizes.
//
//   cmake -S perfbench -B .bench_build/perfbench -DPERFBENCH_BUILD_TESTS=ON
//   cmake --build .bench_build/perfbench -j 4
//   (cd .bench_build/perfbench && ctest --output-on-failure)

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "amperebleed/util/thread_pool.hpp"
#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> samples(100);
  std::iota(samples.begin(), samples.end(), 1.0);  // 1..100, shuffled below
  std::swap(samples[3], samples[97]);
  EXPECT_EQ(percentile(samples, 50.0), 50.0);
  EXPECT_EQ(percentile(samples, 90.0), 90.0);
  EXPECT_EQ(percentile(samples, 99.0), 99.0);
  EXPECT_EQ(percentile(samples, 100.0), 100.0);
  EXPECT_EQ(percentile(samples, 0.0), 1.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(percentile({7.0}, 99.0), 7.0);
}

TEST(Percentile, TailLeavesTenSamplesBeyond) {
  // p99 of 1000 samples is the 990th: exactly ten lie above it.
  EXPECT_EQ(tail_percentile_rank(1000), 99.0);
  EXPECT_EQ(tail_percentile_rank(1000000), 99.0);
  // One sample short of that: p99 would leave nine, so p90 it is.
  EXPECT_EQ(tail_percentile_rank(999), 90.0);
  EXPECT_EQ(tail_percentile_rank(100), 90.0);
  // Fewer than ten beyond p90: only the median is left.
  EXPECT_EQ(tail_percentile_rank(99), 50.0);
  EXPECT_EQ(tail_percentile_rank(3), 50.0);
}

TEST(Result, JsonLineHasTheContractKeys) {
  Result result;
  result.attempted = 3;
  result.add("ops_per_s", 1.5, "1/s");
  EXPECT_EQ(result.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"ops_per_s\": {\"value\": 1.5, \"unit\": "
            "\"1/s\"}}}");
}

/// Counts of one traced run on a fixed round budget at `threads`.
std::map<std::string, std::uint64_t> counts_at(const std::string& workload,
                                               std::uint64_t rounds,
                                               std::size_t threads) {
  ab::util::ThreadPool::set_global_threads(threads);
  Options options;
  options.workload = workload;
  options.seed = 7;
  options.trace = true;
  options.rounds = rounds;
  const Result result = run_workload(options);
  EXPECT_TRUE(result.correct) << workload << " at " << threads << " threads";
  EXPECT_EQ(result.failed, 0u) << workload << " at " << threads << " threads";
  EXPECT_GT(result.attempted, 0u);
  EXPECT_FALSE(result.counts.empty());
  return result.counts;
}

class Determinism
    : public ::testing::TestWithParam<std::pair<const char*, std::uint64_t>> {
};

TEST_P(Determinism, CountsMatchAtPoolSizesOneAndFour) {
  const auto [workload, rounds] = GetParam();
  EXPECT_EQ(counts_at(workload, rounds, 1), counts_at(workload, rounds, 4));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, Determinism,
    ::testing::Values(std::make_pair("classify_steady", std::uint64_t{20}),
                      std::make_pair("churn_durable", std::uint64_t{80}),
                      std::make_pair("recover", std::uint64_t{3}),
                      std::make_pair("fingerprint_offline", std::uint64_t{1})),
    [](const auto& info) { return std::string(info.param.first); });

}  // namespace
}  // namespace perfbench
