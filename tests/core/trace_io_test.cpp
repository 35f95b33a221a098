#include "amperebleed/core/trace_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "amperebleed/ml/dataset.hpp"
#include "support/temp_path.hpp"

namespace amperebleed::core {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = test::temp_path("trace.csv");
};

Trace make_trace() {
  Trace t({power::Rail::Ddr, Quantity::Power}, sim::milliseconds(40),
          sim::milliseconds(35));
  t.push(1'250'000.0);
  t.push(1'275'000.0);
  t.push(1'250'000.0);
  return t;
}

TEST_F(TraceIoTest, RoundTripPreservesEverything) {
  const Trace original = make_trace();
  save_trace_csv(original, path_);
  const Trace loaded = load_trace_csv(path_);
  EXPECT_EQ(loaded.channel(), original.channel());
  EXPECT_EQ(loaded.start(), original.start());
  EXPECT_EQ(loaded.period(), original.period());
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded[i], original[i]);
  }
}

TEST_F(TraceIoTest, FileIsHumanReadableCsv) {
  save_trace_csv(make_trace(), path_);
  std::ifstream in(path_);
  std::string first;
  std::string second;
  std::getline(in, first);
  std::getline(in, second);
  EXPECT_NE(first.find("# amperebleed-trace"), std::string::npos);
  EXPECT_NE(first.find("quantity=power"), std::string::npos);
  EXPECT_NE(first.find("rail=ddr"), std::string::npos);
  EXPECT_EQ(second, "index,time_ms,value");
}

TEST_F(TraceIoTest, EmptyTraceRoundTrips) {
  Trace empty({power::Rail::FpgaLogic, Quantity::Current}, sim::TimeNs{0},
              sim::milliseconds(1));
  save_trace_csv(empty, path_);
  EXPECT_EQ(load_trace_csv(path_).size(), 0u);
}

TEST_F(TraceIoTest, RejectsForeignFiles) {
  {
    std::ofstream out(path_);
    out << "index,time,value\n1,2,3\n";
  }
  EXPECT_THROW(load_trace_csv(path_), std::runtime_error);
  EXPECT_THROW(load_trace_csv("/no/such/file.csv"), std::runtime_error);
}

TEST_F(TraceIoTest, RejectsMalformedRows) {
  {
    std::ofstream out(path_);
    out << "# amperebleed-trace quantity=current rail=ddr start_ns=0 "
           "period_ns=1000\n";
    out << "index,time_ms,value\n";
    out << "0,0.0\n";  // missing column
  }
  EXPECT_THROW(load_trace_csv(path_), std::runtime_error);
}

TEST_F(TraceIoTest, BadValueCellNamesFileAndLine) {
  // Regression: a non-numeric value cell used to surface std::stod's bare
  // "stod" exception with no hint of which file or row was bad. The error
  // must name the offending cell and its exact file:line.
  {
    std::ofstream out(path_);
    out << "# amperebleed-trace quantity=current rail=ddr start_ns=0 "
           "period_ns=1000\n";
    out << "index,time_ms,value\n";
    out << "0,0.0,1.25\n";
    out << "1,1.0,garbage\n";  // line 4
  }
  try {
    (void)load_trace_csv(path_);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad value cell 'garbage'"), std::string::npos)
        << what;
    EXPECT_NE(what.find(path_ + ":4"), std::string::npos) << what;
  }
  // Trailing garbage after a valid prefix is just as rejected ("1.5x" must
  // not silently load as 1.5).
  {
    std::ofstream out(path_);
    out << "# amperebleed-trace quantity=current rail=ddr start_ns=0 "
           "period_ns=1000\n";
    out << "index,time_ms,value\n";
    out << "0,0.0,1.5x\n";
  }
  try {
    (void)load_trace_csv(path_);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path_ + ":3"), std::string::npos)
        << e.what();
  }
}

TEST_F(TraceIoTest, MalformedRowNamesFileAndLine) {
  {
    std::ofstream out(path_);
    out << "# amperebleed-trace quantity=current rail=ddr start_ns=0 "
           "period_ns=1000\n";
    out << "index,time_ms,value\n";
    out << "0,0.0,1.0\n";
    out << "\n";           // blank lines don't advance the error context
    out << "2,2.0\n";      // line 5: missing column
  }
  try {
    (void)load_trace_csv(path_);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("malformed row"), std::string::npos) << what;
    EXPECT_NE(what.find(path_ + ":5"), std::string::npos) << what;
  }
}

TEST_F(TraceIoTest, RejectsBadMetadata) {
  {
    std::ofstream out(path_);
    out << "# amperebleed-trace quantity=entropy rail=ddr start_ns=0 "
           "period_ns=1000\n";
  }
  EXPECT_THROW(load_trace_csv(path_), std::runtime_error);
  {
    std::ofstream out(path_);
    out << "# amperebleed-trace quantity=current rail=ddr start_ns=0 "
           "period_ns=0\n";
  }
  EXPECT_THROW(load_trace_csv(path_), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Validity-mask round trip (resilient acquisition leaves gaps in traces).

TEST_F(TraceIoTest, GaplessFileStaysLegacyThreeColumn) {
  // Fault-free traces must keep the exact legacy on-disk format so archived
  // trajectories diff clean against new saves.
  save_trace_csv(make_trace(), path_);
  std::ifstream in(path_);
  std::string line;
  std::getline(in, line);  // metadata comment
  std::getline(in, line);
  EXPECT_EQ(line, "index,time_ms,value");
  while (std::getline(in, line)) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 2) << line;
  }
}

TEST_F(TraceIoTest, HoleyTraceRoundTripsValidityMask) {
  Trace original({power::Rail::FpgaLogic, Quantity::Current},
                 sim::milliseconds(5), sim::milliseconds(2));
  original.push(120.0);
  original.push_gap();
  original.push(130.0);
  original.push_gap();
  save_trace_csv(original, path_);

  const Trace loaded = load_trace_csv(path_);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.gap_count(), 2u);
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.valid(i), original.valid(i)) << "index " << i;
    EXPECT_DOUBLE_EQ(loaded[i], original[i]) << "index " << i;
  }
}

TEST_F(TraceIoTest, HoleyFileCarriesValidColumn) {
  Trace t({power::Rail::Ddr, Quantity::Current}, sim::TimeNs{0},
          sim::milliseconds(1));
  t.push(7.0);
  t.push_gap();
  save_trace_csv(t, path_);
  std::ifstream in(path_);
  std::string line;
  std::getline(in, line);  // metadata comment
  std::getline(in, line);
  EXPECT_EQ(line, "index,time_ms,value,valid");
  std::getline(in, line);
  EXPECT_EQ(std::count(line.begin(), line.end(), ','), 3) << line;
  EXPECT_EQ(line.back(), '1');
  std::getline(in, line);
  EXPECT_EQ(line.back(), '0');
}

TEST_F(TraceIoTest, LegacyThreeColumnFileLoadsFullyValid) {
  {
    std::ofstream out(path_);
    out << "# amperebleed-trace quantity=current rail=ddr start_ns=0 "
           "period_ns=1000000\n";
    out << "index,time_ms,value\n";
    out << "0,0.000,5\n";
    out << "1,1.000,6\n";
  }
  const Trace loaded = load_trace_csv(path_);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_TRUE(loaded.fully_valid());
  EXPECT_EQ(loaded.gap_count(), 0u);
  EXPECT_DOUBLE_EQ(loaded[0], 5.0);
  EXPECT_DOUBLE_EQ(loaded[1], 6.0);
}

TEST_F(TraceIoTest, NanValueCellFailsWhenAddedToADataset) {
  // std::stod parses "nan" and "inf", so the file loads; the dataset is the
  // door that keeps non-finite samples away from tree training.
  {
    std::ofstream out(path_);
    out << "# amperebleed-trace quantity=current rail=ddr start_ns=0 "
           "period_ns=1000000\n";
    out << "index,time_ms,value\n";
    out << "0,0.000,5\n";
    out << "1,1.000,nan\n";
  }
  const Trace loaded = load_trace_csv(path_);
  ASSERT_EQ(loaded.size(), 2u);
  ml::Dataset data;
  EXPECT_THROW(data.add(loaded.values(), 0), std::invalid_argument);
  EXPECT_TRUE(data.empty());
}

}  // namespace
}  // namespace amperebleed::core
