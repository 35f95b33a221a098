#include "amperebleed/util/cli.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace amperebleed::util {
namespace {

CliArgs parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return CliArgs(static_cast<int>(argv.size()),
                 const_cast<char**>(argv.data()));
}

TEST(CliArgs, SpaceSeparatedValues) {
  const auto args = parse({"--samples", "500", "--csv", "out.csv"});
  EXPECT_EQ(args.get_int("samples", 0), 500);
  EXPECT_EQ(args.get_string("csv", ""), "out.csv");
}

TEST(CliArgs, EqualsSeparatedValues) {
  const auto args = parse({"--levels=42", "--ratio=2.5"});
  EXPECT_EQ(args.get_int("levels", 0), 42);
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.0), 2.5);
}

TEST(CliArgs, BooleanFlags) {
  const auto args = parse({"--quick", "--models", "10"});
  EXPECT_TRUE(args.has("quick"));
  EXPECT_FALSE(args.has("slow"));
  EXPECT_EQ(args.get_int("quick", 0), 1);
  EXPECT_EQ(args.get_int("models", 0), 10);
}

TEST(CliArgs, FallbacksWhenAbsent) {
  const auto args = parse({});
  EXPECT_EQ(args.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("x", 1.5), 1.5);
  EXPECT_EQ(args.get_string("s", "d"), "d");
}

TEST(CliArgs, TrailingBooleanFlag) {
  const auto args = parse({"--a", "1", "--verbose"});
  EXPECT_TRUE(args.has("verbose"));
}

TEST(CliArgs, RejectsPositionalArguments) {
  EXPECT_THROW(parse({"positional"}), std::invalid_argument);
}

TEST(CliArgs, RejectsTrailingGarbageOnNumericValues) {
  // "4abc" used to silently parse as 4 and "0.1x" as 0.1 — a typo'd flag
  // would quietly run the wrong experiment.
  const auto args = parse({"--threads", "4abc", "--rate", "0.1x"});
  EXPECT_THROW((void)args.get_int("threads", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("rate", 0.0), std::invalid_argument);
  try {
    (void)args.get_int("threads", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("invalid value for --threads"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("4abc"), std::string::npos);
  }
}

TEST(CliArgs, RejectsNonNumericValues) {
  const auto args = parse({"--n", "abc", "--x", "fast"});
  EXPECT_THROW((void)args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("x", 0.0), std::invalid_argument);
}

TEST(CliArgs, HexAndFloatFormsStillParse) {
  // Strictness must not cost the formats benches rely on: hex fault seeds
  // (base-0 auto-detection) and exponent-form doubles.
  const auto args = parse({"--fault-seed", "0xfa17", "--eps", "1e-3",
                           "--neg", "-12"});
  EXPECT_EQ(args.get_int("fault-seed", 0), 0xfa17);
  EXPECT_DOUBLE_EQ(args.get_double("eps", 0.0), 1e-3);
  EXPECT_EQ(args.get_int("neg", 0), -12);
}

}  // namespace
}  // namespace amperebleed::util
