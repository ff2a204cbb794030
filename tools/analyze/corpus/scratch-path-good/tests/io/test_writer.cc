#include <string>

#include "temp_path.hh"

TEST(Writer, PerTestNames)
{
    // Neither TempDir() nor "/tmp/x" in a comment is a path.
    std::string out = tempPath("writer_out.json");
    std::string relative = "out/tmp/writer.json";
    (void)out;
    (void)relative;
}
