#pragma once
// Per-test scratch paths. ctest runs every TEST as its own process, and in
// parallel under `ctest -j`, so a fixed file name under
// ::testing::TempDir() that several TESTs share is a race between them.
// Naming the path after the running test (suite + test name) keeps each
// test's files its own.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace amperebleed::test {

/// TempDir() + "<Suite>.<Test>." + `suffix` for the test running now.
/// Parameterized names ("Suite/0") have their '/' replaced with '_'.
inline std::string temp_path(const std::string& suffix) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." +
                     info->name() + "." + suffix;
  std::replace(name.begin(), name.end(), '/', '_');
  return ::testing::TempDir() + name;
}

}  // namespace amperebleed::test
