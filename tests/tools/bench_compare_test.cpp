#include "bench_records.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "amperebleed/util/json.hpp"

namespace amperebleed::tools {
namespace {

// Canned JSON run records — the fixture the CI perf gate is modeled on.
BenchRecord make_record(const std::string& bench, double accuracy,
                        double wall_seconds,
                        const std::string& hostname = "hostA",
                        const std::string& build_type = "Release") {
  const std::string text =
      "{\"bench\":\"" + bench + "\",\"wall_seconds\":" +
      std::to_string(wall_seconds) +
      ",\"unix_time\":1700000000,"
      "\"env\":{\"git_sha\":\"abc123\",\"hostname\":\"" + hostname +
      "\",\"build_type\":\"" + build_type + "\"},"
      "\"numbers\":{\"top1_accuracy\":" + std::to_string(accuracy) +
      ",\"samples_per_sec\":1000.0},\"text\":{}}";
  return parse_bench_record(util::Json::parse(text));
}

TEST(MetricDirection, HeuristicsMatchIntent) {
  EXPECT_EQ(metric_direction("top1_accuracy"),
            MetricDirection::HigherIsBetter);
  EXPECT_EQ(metric_direction("samples_per_sec"),
            MetricDirection::HigherIsBetter);
  EXPECT_EQ(metric_direction("wall_seconds"), MetricDirection::LowerIsBetter);
  EXPECT_EQ(metric_direction("poll_latency_ns"),
            MetricDirection::LowerIsBetter);
  EXPECT_EQ(metric_direction("obs_hwmon_reads_denied"),
            MetricDirection::LowerIsBetter);
  EXPECT_EQ(metric_direction("fpr_at_10rps"), MetricDirection::LowerIsBetter);
}

TEST(CompareRecords, UnchangedBuildHasNoRegressions) {
  const auto base = make_record("fig2", 0.95, 10.0);
  const auto cur = make_record("fig2", 0.95, 10.2);  // 2% wall noise
  const auto report = compare_records({base}, {cur}, {});
  EXPECT_EQ(report.regressions(), 0u);
  EXPECT_FALSE(report.env_mismatch);
  EXPECT_FALSE(report.comparisons.empty());
}

TEST(CompareRecords, DegradedMetricBeyondThresholdRegresses) {
  const auto base = make_record("fig2", 0.95, 10.0);
  // Accuracy down 20% (higher-is-better) and wall up 50% (lower-is-better).
  const auto cur = make_record("fig2", 0.76, 15.0);
  CompareOptions options;
  options.threshold = 0.10;
  const auto report = compare_records({base}, {cur}, options);
  EXPECT_EQ(report.regressions(), 2u);

  bool saw_accuracy = false;
  for (const auto& c : report.comparisons) {
    if (c.key == "top1_accuracy") {
      saw_accuracy = true;
      EXPECT_EQ(c.verdict, Verdict::Regression);
      EXPECT_NEAR(c.rel_delta, -0.2, 1e-9);
    }
  }
  EXPECT_TRUE(saw_accuracy);
}

TEST(CompareRecords, ImprovementIsNotARegression) {
  const auto base = make_record("fig2", 0.80, 10.0);
  const auto cur = make_record("fig2", 0.95, 5.0);
  const auto report = compare_records({base}, {cur}, {});
  EXPECT_EQ(report.regressions(), 0u);
  EXPECT_GE(report.improvements(), 2u);
}

TEST(CompareRecords, EnvMismatchFlagsButStillCompares) {
  const auto base = make_record("fig2", 0.95, 10.0, "hostA", "Release");
  const auto cur = make_record("fig2", 0.95, 10.0, "hostB", "Debug");
  const auto report = compare_records({base}, {cur}, {});
  EXPECT_TRUE(report.env_mismatch);
  EXPECT_GE(report.warnings.size(), 2u);  // hostname + build_type
  EXPECT_FALSE(report.comparisons.empty());
}

// A bench only the current snapshot has is new, and a baseline bench whose
// keys the filters all drop gates nothing: both are warnings, not errors.
TEST(CompareRecords, UnmatchedBenchesBecomeWarningsNotErrors) {
  const auto base = make_record("old_bench", 0.95, 10.0);
  const auto cur = make_record("new_bench", 0.95, 10.0);
  CompareOptions options;
  options.include = {"speedup"};
  const auto report = compare_records({base}, {cur}, options);
  EXPECT_TRUE(report.comparisons.empty());
  EXPECT_EQ(report.warnings.size(), 2u);
  EXPECT_EQ(report.regressions(), 0u);
  EXPECT_TRUE(report.missing.empty());
  EXPECT_TRUE(report.passed());
}

// A bench that stops writing a gated number fails the gate; it is not a
// warning the gate lets through.
TEST(CompareRecords, MissingGatedMetricFailsTheGate) {
  const auto base = make_record("fig2", 0.95, 10.0);
  const auto cur = parse_bench_record(util::Json::parse(
      "{\"bench\":\"fig2\",\"wall_seconds\":10.0,"
      "\"numbers\":{\"samples_per_sec\":1000.0}}"));
  auto report = compare_records({base}, {cur}, {});
  EXPECT_EQ(report.missing, std::vector<std::string>{"fig2.top1_accuracy"});
  EXPECT_EQ(report.regressions(), 0u);
  EXPECT_FALSE(report.passed());

  // A key the filters drop is not gated, so its absence passes.
  CompareOptions options;
  options.exclude = {"accuracy"};
  report = compare_records({base}, {cur}, options);
  EXPECT_TRUE(report.missing.empty());
  EXPECT_TRUE(report.passed());
}

// A baseline bench the current snapshot lacks fails the gate when any of
// its keys is gated, say because its binary was not built.
TEST(CompareRecords, MissingBaselineBenchFailsTheGate) {
  const auto old_bench = make_record("old_bench", 0.95, 10.0);
  const auto fig2 = make_record("fig2", 0.95, 10.0);
  const auto report = compare_records({old_bench, fig2}, {fig2}, {});
  EXPECT_EQ(report.missing, std::vector<std::string>{"old_bench"});
  EXPECT_EQ(report.regressions(), 0u);
  EXPECT_FALSE(report.passed());
}

TEST(CompareRecords, IncludeExcludeFilters) {
  const auto base = make_record("fig2", 0.95, 10.0);
  const auto cur = make_record("fig2", 0.50, 20.0);  // both degrade
  CompareOptions options;
  options.include = {"accuracy"};
  auto report = compare_records({base}, {cur}, options);
  ASSERT_EQ(report.comparisons.size(), 1u);
  EXPECT_EQ(report.comparisons[0].key, "top1_accuracy");

  options = {};
  options.exclude = {"wall", "per_sec"};
  report = compare_records({base}, {cur}, options);
  ASSERT_EQ(report.comparisons.size(), 1u);
  EXPECT_EQ(report.comparisons[0].key, "top1_accuracy");
}

// Stage/SLO keys are informational: hidden by default, shown but never
// gating under show_stages, and exempt from missing-metric warnings.
BenchRecord make_staged_record(double accuracy, double classify_ms) {
  const std::string text =
      "{\"bench\":\"table3\",\"wall_seconds\":10.0,\"unix_time\":1700000000,"
      "\"env\":{\"git_sha\":\"abc123\",\"hostname\":\"hostA\","
      "\"build_type\":\"Release\"},"
      "\"numbers\":{\"top1_accuracy\":" + std::to_string(accuracy) +
      ",\"stage_classify_total_ms\":" + std::to_string(classify_ms) +
      ",\"slo_acquire_virtual_latency_compliance\":0.99},\"text\":{}}";
  return parse_bench_record(util::Json::parse(text));
}

TEST(CompareRecords, StageAndSloKeysAreHiddenByDefault) {
  const auto base = make_staged_record(0.95, 100.0);
  const auto cur = make_staged_record(0.95, 900.0);  // 9x "regression"
  const auto report = compare_records({base}, {cur}, {});
  EXPECT_EQ(report.regressions(), 0u);
  for (const auto& c : report.comparisons) {
    EXPECT_EQ(c.key.find("stage_"), std::string::npos) << c.key;
    EXPECT_EQ(c.key.find("slo_"), std::string::npos) << c.key;
  }
}

TEST(CompareRecords, ShowStagesSurfacesButNeverGates) {
  const auto base = make_staged_record(0.95, 100.0);
  const auto cur = make_staged_record(0.95, 900.0);
  CompareOptions options;
  options.show_stages = true;
  const auto report = compare_records({base}, {cur}, options);
  EXPECT_EQ(report.regressions(), 0u);
  EXPECT_EQ(report.improvements(), 0u);
  bool saw_stage = false;
  bool saw_slo = false;
  for (const auto& c : report.comparisons) {
    if (c.key == "stage_classify_total_ms") {
      saw_stage = true;
      EXPECT_TRUE(c.informational);
    }
    if (c.key == "slo_acquire_virtual_latency_compliance") saw_slo = true;
  }
  EXPECT_TRUE(saw_stage);
  EXPECT_TRUE(saw_slo);
  // The table renders them in their own never-gating section.
  EXPECT_NE(report.to_table().find("informational"), std::string::npos);
}

// Drift/quality keys follow the same informational policy as stage_/slo_,
// behind their own --quality flag.
BenchRecord make_quality_record(double accuracy, double psi) {
  const std::string text =
      "{\"bench\":\"abl_quality\",\"wall_seconds\":1.0,"
      "\"unix_time\":1700000000,"
      "\"env\":{\"git_sha\":\"abc123\",\"hostname\":\"hostA\","
      "\"build_type\":\"Release\"},"
      "\"numbers\":{\"top1_accuracy\":" + std::to_string(accuracy) +
      ",\"drift_shift_psi_mean\":" + std::to_string(psi) +
      ",\"quality_gap_fraction_max\":0.02},\"text\":{}}";
  return parse_bench_record(util::Json::parse(text));
}

TEST(CompareRecords, DriftAndQualityKeysAreHiddenByDefault) {
  const auto base = make_quality_record(0.95, 0.10);
  const auto cur = make_quality_record(0.95, 1.50);  // 15x "regression"
  const auto report = compare_records({base}, {cur}, {});
  EXPECT_EQ(report.regressions(), 0u);
  for (const auto& c : report.comparisons) {
    EXPECT_EQ(c.key.find("drift_"), std::string::npos) << c.key;
    EXPECT_EQ(c.key.find("quality_"), std::string::npos) << c.key;
  }
}

TEST(CompareRecords, ShowQualitySurfacesButNeverGates) {
  const auto base = make_quality_record(0.95, 0.10);
  const auto cur = make_quality_record(0.95, 1.50);
  CompareOptions options;
  options.show_quality = true;
  const auto report = compare_records({base}, {cur}, options);
  EXPECT_EQ(report.regressions(), 0u);
  EXPECT_EQ(report.improvements(), 0u);
  bool saw_drift = false;
  bool saw_quality = false;
  for (const auto& c : report.comparisons) {
    if (c.key == "drift_shift_psi_mean") {
      saw_drift = true;
      EXPECT_TRUE(c.informational);
    }
    if (c.key == "quality_gap_fraction_max") saw_quality = true;
  }
  EXPECT_TRUE(saw_drift);
  EXPECT_TRUE(saw_quality);
}

TEST(CompareRecords, QualityFlagDoesNotSurfaceStageKeys) {
  // The two informational families toggle independently.
  const auto base = make_staged_record(0.95, 100.0);
  const auto cur = make_staged_record(0.95, 900.0);
  CompareOptions options;
  options.show_quality = true;
  const auto report = compare_records({base}, {cur}, options);
  for (const auto& c : report.comparisons) {
    EXPECT_EQ(c.key.find("stage_"), std::string::npos) << c.key;
    EXPECT_EQ(c.key.find("slo_"), std::string::npos) << c.key;
  }
}

TEST(CompareRecords, MissingQualityKeysDrawNoWarnings) {
  const auto base = make_quality_record(0.95, 0.10);
  const auto cur = make_record("abl_quality", 0.95, 1.0);  // quality off
  const auto report = compare_records({base}, {cur}, {});
  for (const auto& warning : report.warnings) {
    EXPECT_EQ(warning.find("drift_"), std::string::npos) << warning;
    EXPECT_EQ(warning.find("quality_"), std::string::npos) << warning;
  }
}

TEST(CompareRecords, ObsOffRunsMissingStageKeysDrawNoWarnings) {
  const auto base = make_staged_record(0.95, 100.0);
  const auto cur = make_record("table3", 0.95, 10.0);  // no stage_/slo_ keys
  const auto report = compare_records({base}, {cur}, {});
  for (const auto& warning : report.warnings) {
    EXPECT_EQ(warning.find("stage_"), std::string::npos) << warning;
    EXPECT_EQ(warning.find("slo_"), std::string::npos) << warning;
  }
}

TEST(CompareRecords, ZeroBaselineDoesNotDivide) {
  const std::string base_text =
      "{\"bench\":\"z\",\"numbers\":{\"errors\":0.0}}";
  const std::string cur_text =
      "{\"bench\":\"z\",\"numbers\":{\"errors\":5.0}}";
  const auto report = compare_records(
      {parse_bench_record(util::Json::parse(base_text))},
      {parse_bench_record(util::Json::parse(cur_text))}, {});
  ASSERT_EQ(report.comparisons.size(), 1u);
  EXPECT_EQ(report.comparisons[0].verdict, Verdict::Regression);
}

TEST(CompareReport, JsonAndTableRoundTrip) {
  const auto base = make_record("fig2", 0.95, 10.0);
  const auto cur = make_record("fig2", 0.50, 10.0);
  const auto report = compare_records({base}, {cur}, {});
  const util::Json doc = report.to_json();
  EXPECT_EQ(doc.find("regressions")->as_integer(), 1);
  // Serialized report parses back.
  const util::Json reparsed = util::Json::parse(doc.dump(2));
  EXPECT_EQ(reparsed.find("comparisons")->size(), doc.find("comparisons")->size());

  const std::string table = report.to_table();
  EXPECT_NE(table.find("top1_accuracy"), std::string::npos);
  EXPECT_NE(table.find("regression"), std::string::npos);
}

TEST(LoadRecords, TrajectoryDirectoryRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(testing::TempDir()) / "amperebleed_traj_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream a(dir / "BENCH_fig2.json");
    a << "{\"bench\":\"fig2\",\"wall_seconds\":1.5,"
         "\"numbers\":{\"snr_db\":20.0}}\n";
    std::ofstream b(dir / "BENCH_abla.json");
    b << "{\"bench\":\"abla\",\"wall_seconds\":0.5,\"numbers\":{}}\n";
    std::ofstream noise(dir / "notes.txt");
    noise << "not a record\n";
  }
  const auto records = load_trajectory_dir(dir.string());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].bench, "abla");  // sorted by bench name
  EXPECT_EQ(records[1].bench, "fig2");
  EXPECT_DOUBLE_EQ(records[1].numbers.at("snr_db"), 20.0);
  EXPECT_DOUBLE_EQ(records[1].numbers.at("wall_seconds"), 1.5);

  // load_records dispatches file vs directory.
  EXPECT_EQ(load_records(dir.string()).size(), 2u);
  EXPECT_EQ(load_records((dir / "BENCH_fig2.json").string()).size(), 1u);

  EXPECT_THROW(load_trajectory_dir((dir / "missing").string()),
               std::runtime_error);
  fs::remove_all(dir);
}

TEST(ParseBenchRecord, RejectsNamelessRecords) {
  EXPECT_THROW(parse_bench_record(util::Json::parse("{\"numbers\":{}}")),
               std::runtime_error);
  EXPECT_THROW(parse_bench_record(util::Json::parse("[1,2]")),
               std::runtime_error);
}

TEST(ParseThreshold, AcceptsFiniteNonNegativeNumbers) {
  EXPECT_DOUBLE_EQ(parse_threshold("0.1"), 0.1);
  EXPECT_DOUBLE_EQ(parse_threshold("0"), 0.0);
  EXPECT_DOUBLE_EQ(parse_threshold("2.5e-1"), 0.25);
}

// A NaN threshold makes every `badness > threshold` false, so every metric
// would read Unchanged and the gate would pass; the parser refuses it and
// every other value that is not plainly a threshold.
TEST(ParseThreshold, RejectsValuesThatWouldSilenceTheGate) {
  for (const char* text :
       {"nan", "NaN", "inf", "-inf", "1e999", "-0.1", "0.1abc", "0.1 ", "",
        "abc"}) {
    EXPECT_THROW(parse_threshold(text), std::invalid_argument) << text;
  }
}

}  // namespace
}  // namespace amperebleed::tools
