// Per-test temporary files for suites that write to disk.
//
// gtest_discover_tests registers every test case as its own ctest test, so
// `ctest -j` runs cases of one suite in parallel processes. A fixed name
// under the shared testing::TempDir() is then written by several cases at
// once. TestTempPath() places each file in a directory private to the
// current test case and process instead.

#ifndef SOI_TESTS_TEST_TEMP_DIR_H_
#define SOI_TESTS_TEST_TEMP_DIR_H_

#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

namespace soi {

/// Path of `name` inside a directory unique to the running test case and
/// process, created on first use and removed at process exit. Call from the
/// test body's thread.
inline std::string TestTempPath(std::string_view name) {
  struct Made {
    std::vector<std::filesystem::path> dirs;
    ~Made() {
      std::error_code ec;
      for (const auto& dir : dirs) std::filesystem::remove_all(dir, ec);
    }
  };
  static Made made;

  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  std::string leaf = "soi-";
  if (info != nullptr) {
    leaf += std::string(info->test_suite_name()) + "." + info->name() + "-";
  }
  leaf += std::to_string(getpid());
  for (char& ch : leaf) {
    if (ch == '/') ch = '_';  // parameterized names contain slashes
  }
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / leaf;
  std::error_code ec;
  if (std::filesystem::create_directories(dir, ec)) made.dirs.push_back(dir);
  return (dir / name).string();
}

}  // namespace soi

#endif  // SOI_TESTS_TEST_TEMP_DIR_H_
