#include "amperebleed/obs/run_record.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "amperebleed/util/json.hpp"

namespace amperebleed::obs {
namespace {

TEST(RunEnvironment, CurrentIsPopulatedAndCached) {
  const RunEnvironment& env = RunEnvironment::current();
  EXPECT_FALSE(env.git_sha.empty());
  EXPECT_FALSE(env.hostname.empty());
  EXPECT_FALSE(env.build_type.empty());
  // Cached: repeated calls hand back the same object.
  EXPECT_EQ(&RunEnvironment::current(), &env);
}

TEST(RunRecord, JsonCarriesProvenanceEnvBlock) {
  RunRecord record("fig2_characterization");
  const util::Json doc = record.to_json();
  EXPECT_EQ(doc.find("bench")->as_string(), "fig2_characterization");
  EXPECT_GE(doc.find("wall_seconds")->as_number(), 0.0);
  EXPECT_GT(doc.find("unix_time")->as_integer(), 0);

  const util::Json* env = doc.find("env");
  ASSERT_NE(env, nullptr);
  EXPECT_EQ(env->find("git_sha")->as_string(),
            RunEnvironment::current().git_sha);
  EXPECT_EQ(env->find("hostname")->as_string(),
            RunEnvironment::current().hostname);
  EXPECT_EQ(env->find("build_type")->as_string(),
            RunEnvironment::current().build_type);
}

TEST(RunRecord, NumbersTextAndOverwrite) {
  RunRecord record("bench");
  record.set_number("accuracy", 0.5);
  record.set_number("accuracy", 0.91);  // last write wins
  record.set_integer("traces", 1000);
  record.set_text("note", "quick");

  const util::Json doc = record.to_json();
  EXPECT_DOUBLE_EQ(doc.find("numbers")->find("accuracy")->as_number(), 0.91);
  EXPECT_EQ(doc.find("numbers")->find("traces")->as_integer(), 1000);
  EXPECT_EQ(doc.find("text")->find("note")->as_string(), "quick");
}

TEST(RunRecord, WriteAndDefaultPath) {
  RunRecord record("unit_test_bench");
  record.set_number("x", 1.0);
  EXPECT_EQ(record.default_path(), "BENCH_unit_test_bench.json");

  const std::string path =
      testing::TempDir() + "/amperebleed_run_record_test.json";
  std::remove(path.c_str());
  record.write(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const util::Json doc = util::Json::parse(text);
  EXPECT_EQ(doc.find("bench")->as_string(), "unit_test_bench");
  EXPECT_DOUBLE_EQ(doc.find("numbers")->find("x")->as_number(), 1.0);
  std::remove(path.c_str());
}

// The /runrecord endpoint serializes from the HTTP serve thread while the
// bench mutates; this is the TSan-visible contract.
TEST(RunRecord, ConcurrentMutationAndSerializationIsSafe) {
  RunRecord record("hammer");
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&record, t]() {
      for (int i = 0; i < 2000; ++i) {
        record.set_number("metric_" + std::to_string(t),
                          static_cast<double>(i));
        record.set_text("text_" + std::to_string(t), std::to_string(i));
      }
    });
  }
  std::thread reader([&record]() {
    for (int i = 0; i < 200; ++i) {
      const util::Json doc = record.to_json();
      EXPECT_EQ(doc.find("bench")->as_string(), "hammer");
    }
  });
  for (auto& w : writers) w.join();
  reader.join();

  const util::Json doc = record.to_json();
  for (int t = 0; t < 4; ++t) {
    EXPECT_DOUBLE_EQ(
        doc.find("numbers")->find("metric_" + std::to_string(t))->as_number(),
        1999.0);
    EXPECT_EQ(doc.find("text")->find("text_" + std::to_string(t))->as_string(),
              "1999");
  }
}

}  // namespace
}  // namespace amperebleed::obs
