/**
 * @file
 * Scratch paths for tests. ctest runs every TEST as its own process,
 * many at once under -j, so a fixed name under TempDir() collides;
 * tempPath() names the path after the running test and the process.
 */

#ifndef SPECFETCH_TESTS_TEMP_PATH_HH_
#define SPECFETCH_TESTS_TEMP_PATH_HH_

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>

namespace specfetch::test {

/** A path under TempDir() unique to the running test and process;
 *  @p tag tells several paths of one test apart. */
inline std::string
tempPath(const std::string &tag)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "specfetch_" + info->test_suite_name() +
           "." + info->name() + "_" + std::to_string(getpid()) + "_" + tag;
}

} // namespace specfetch::test

#endif // SPECFETCH_TESTS_TEMP_PATH_HH_
