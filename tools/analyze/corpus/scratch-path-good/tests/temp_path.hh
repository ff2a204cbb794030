#include <gtest/gtest.h>

#include <string>

// The one file that may build a scratch path on TempDir().
inline std::string
tempPath(const std::string &tag)
{
    return ::testing::TempDir() + "specfetch_" + tag;
}
