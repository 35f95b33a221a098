#include "amperebleed/util/fs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/temp_path.hpp"

namespace amperebleed::util {
namespace {

class FsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  std::string path_ = test::temp_path("out.bin");
};

TEST_F(FsTest, AtomicWriteThenReadRoundTrips) {
  atomic_write_file(path_, std::string_view("hello\0world", 11));
  EXPECT_EQ(read_file(path_), std::string("hello\0world", 11));
  EXPECT_FALSE(path_exists(path_ + ".tmp"));
}

TEST_F(FsTest, AtomicWriteReplacesExistingContent) {
  atomic_write_file(path_, "old content");
  atomic_write_file(path_, "new");
  EXPECT_EQ(read_file(path_), "new");
}

TEST_F(FsTest, ObserverSeesAllPhasesInOrder) {
  std::vector<std::string> phases;
  atomic_write_file(path_, "observed", [&](std::string_view phase) {
    phases.emplace_back(phase);
  });
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0], "tmp-partial");
  EXPECT_EQ(phases[1], "tmp-synced");
  EXPECT_EQ(phases[2], "renamed");
}

// A throwing observer simulates a crash mid-write: the target keeps its old
// content and the torn temporary is left on disk (what recovery must clean).
TEST_F(FsTest, ThrowingObserverLeavesTargetUntouched) {
  atomic_write_file(path_, "original");
  struct Abort {};
  EXPECT_THROW(
      atomic_write_file(path_, "replacement",
                        [](std::string_view phase) {
                          if (phase == "tmp-synced") throw Abort{};
                        }),
      Abort);
  EXPECT_EQ(read_file(path_), "original");
  EXPECT_TRUE(path_exists(path_ + ".tmp"));
}

// Empty, one byte, and over 1 MiB holding every byte value (NUL and 0xFF
// included) all come back exactly, at exactly their size.
TEST_F(FsTest, ReadFileReturnsExactBytes) {
  atomic_write_file(path_, "");
  EXPECT_EQ(read_file(path_), "");
  atomic_write_file(path_, "\x7f");
  EXPECT_EQ(read_file(path_), "\x7f");
  std::string big((1u << 20) + 4099, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>((i * 131 + i / 256) & 0xFF);
  }
  atomic_write_file(path_, big);
  const std::string back = read_file(path_);
  EXPECT_EQ(back.size(), big.size());
  EXPECT_TRUE(back == big);
}

TEST_F(FsTest, ReadMissingFileThrows) {
  EXPECT_THROW((void)read_file(path_ + ".does-not-exist"),
               std::runtime_error);
}

TEST_F(FsTest, MakeDirsCreatesNestedAndTolerateExisting) {
  const std::string dir = ::testing::TempDir() + "fs_test_dirs/a/b/c";
  make_dirs(dir);
  EXPECT_TRUE(path_exists(dir));
  make_dirs(dir);  // idempotent
  EXPECT_TRUE(path_exists(dir));
}

TEST_F(FsTest, ListDirReturnsSortedNames) {
  const std::string dir = ::testing::TempDir() + "fs_test_list";
  make_dirs(dir);
  atomic_write_file(dir + "/bbb", "1");
  atomic_write_file(dir + "/aaa", "2");
  atomic_write_file(dir + "/ccc", "3");
  const std::vector<std::string> names = list_dir(dir);
  ASSERT_EQ(names.size(), 3u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(names[0], "aaa");
  for (const std::string& name : names) remove_file(dir + "/" + name);
}

TEST_F(FsTest, FsyncDirSyncsExistingDirectoryOnly) {
  const std::string dir = ::testing::TempDir() + "fs_test_sync";
  make_dirs(dir);
  fsync_dir(dir);  // no throw
  EXPECT_THROW(fsync_dir(dir + "/missing"), std::runtime_error);
}

TEST_F(FsTest, RemoveFileIsIdempotent) {
  atomic_write_file(path_, "x");
  remove_file(path_);
  EXPECT_FALSE(path_exists(path_));
  remove_file(path_);  // missing file is not an error
}

}  // namespace
}  // namespace amperebleed::util
