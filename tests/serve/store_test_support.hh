/**
 * @file
 * Helpers shared by the result-store tests: bench_suite's grid, a
 * fixture owning a scratch store directory, and auditing a store with
 * the offline fsck (tools/store_fsck.py).
 */

#ifndef SPECFETCH_TESTS_SERVE_STORE_TEST_SUPPORT_HH_
#define SPECFETCH_TESTS_SERVE_STORE_TEST_SUPPORT_HH_

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "temp_path.hh"
#include "workload/registry.hh"

namespace specfetch::test {

/** bench_suite's 130-run grid at @p budget: profile-major,
 *  policy-minor, prefetch innermost. */
inline std::vector<RunSpec>
suiteGrid(uint64_t budget)
{
    SimConfig base;
    base.instructionBudget = budget;
    std::vector<RunSpec> specs;
    for (const std::string &name : benchmarkNames()) {
        for (FetchPolicy policy : allPolicies()) {
            for (bool prefetch : {false, true}) {
                SimConfig config = base;
                config.policy = policy;
                config.nextLinePrefetch = prefetch;
                specs.push_back(RunSpec{name, config});
            }
        }
    }
    return specs;
}

/** Remove @p dir and the files in it (stores have no subdirectories). */
inline void
wipeDir(const std::string &dir)
{
    if (DIR *handle = opendir(dir.c_str())) {
        while (struct dirent *entry = readdir(handle)) {
            std::string name = entry->d_name;
            if (name != "." && name != "..")
                std::remove((dir + "/" + name).c_str());
        }
        closedir(handle);
    }
    std::remove(dir.c_str()); // the directory, or a file in its place
}

/** The files in @p dir, name -> bytes (stores have no subdirectories). */
inline std::map<std::string, std::string>
readFiles(const std::string &dir)
{
    std::map<std::string, std::string> files;
    if (DIR *handle = opendir(dir.c_str())) {
        while (struct dirent *entry = readdir(handle)) {
            std::string name = entry->d_name;
            if (name == "." || name == "..")
                continue;
            std::ifstream in(dir + "/" + name, std::ios::binary);
            std::ostringstream bytes;
            bytes << in.rdbuf();
            files[name] = bytes.str();
        }
        closedir(handle);
    }
    return files;
}

/** A test owning one scratch store directory, wiped before and after
 *  (a stale record would turn a test's first miss into a hit). */
class StoreDirTest : public ::testing::Test
{
  protected:
    void SetUp() override { wipeDir(dir); }
    void TearDown() override { wipeDir(dir); }

    const std::string dir = tempPath("store");
};

/** Exit status of `tools/store_fsck.py --strict` over @p dir. */
inline int
strictFsck(const std::string &dir)
{
    std::string command = std::string("python3 ") + SPECFETCH_STORE_FSCK +
                          " --strict '" + dir + "' > /dev/null";
    int status = std::system(command.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

} // namespace specfetch::test

#endif // SPECFETCH_TESTS_SERVE_STORE_TEST_SUPPORT_HH_
