// Per-test scratch paths.
//
// ctest runs every gtest case as its own process, and `ctest -j` runs
// them side by side, so a fixed file name under the temp directory is
// shared by whichever cases happen to run at once. unique_temp_path
// folds the running test's name and the process id into the path, so
// no two test processes ever touch the same file.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace gpuvar {

/// <TempDir>/gpuvar_<stem>_<Suite.Test>_<pid>. Called from
/// SetUpTestSuite (no test is running yet) it uses the suite name.
inline std::filesystem::path unique_temp_path(const std::string& stem) {
  const auto* unit = ::testing::UnitTest::GetInstance();
  const auto* info = unit->current_test_info();
  std::string test =
      info != nullptr
          ? std::string(info->test_suite_name()) + "." + info->name()
          : std::string(unit->current_test_suite()->name());
  // Parameterized names carry '/' (Prefix/Suite.Test/0).
  for (char& c : test) {
    if (c == '/') c = '_';
  }
  return std::filesystem::path(::testing::TempDir()) /
         ("gpuvar_" + stem + "_" + test + "_" + std::to_string(::getpid()));
}

}  // namespace gpuvar
