#include <gtest/gtest.h>

#include <string>

TEST(Writer, FixedNames)
{
    std::string a = ::testing::TempDir() + "writer_out.json";
    std::string b = "/tmp/writer_out.json";
    (void)a;
    (void)b;
}
