#include "amperebleed/util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/temp_path.hpp"

namespace amperebleed::util {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class CsvTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = test::temp_path("out.csv");
};

TEST_F(CsvTest, WritesPlainRows) {
  {
    CsvWriter csv(path_);
    csv.row({"a", "b"});
    csv.row({"1", "2"});
  }
  EXPECT_EQ(read_all(path_), "a,b\n1,2\n");
}

TEST_F(CsvTest, EscapesSpecialCharacters) {
  {
    CsvWriter csv(path_);
    csv.row({"has,comma", "has\"quote", "plain"});
  }
  EXPECT_EQ(read_all(path_), "\"has,comma\",\"has\"\"quote\",plain\n");
}

TEST_F(CsvTest, WritesDoublesAtFullPrecision) {
  {
    CsvWriter csv(path_);
    csv.row_doubles({0.1, 2.0});
  }
  const std::string contents = read_all(path_);
  EXPECT_NE(contents.find("0.1"), std::string::npos);
  EXPECT_NE(contents.find("2"), std::string::npos);
}

TEST(CsvEscape, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(CsvWriter::escape("q\"q"), "\"q\"\"q\"");
}

TEST(CsvWriterErrors, ThrowsOnUnopenablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/deep/file.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace amperebleed::util
