/**
 * @file
 * Helpers shared by the result-store tests: bench_suite's grid, a
 * fixture owning a scratch store directory, and the verdict
 * `store_fsck --strict` gives a store.
 */

#ifndef SPECFETCH_TESTS_SERVE_STORE_TEST_SUPPORT_HH_
#define SPECFETCH_TESTS_SERVE_STORE_TEST_SUPPORT_HH_

#include <gtest/gtest.h>

#include <dirent.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "serve/result_store.hh"
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

/** A test owning one scratch store directory, wiped before and after
 *  (a stale record would turn a test's first miss into a hit). */
class StoreDirTest : public ::testing::Test
{
  protected:
    void SetUp() override { wipeDir(dir); }
    void TearDown() override { wipeDir(dir); }

    const std::string dir = tempPath("store");
};

/** Exit status of `store_fsck --strict` over @p dir: 0 when open
 *  would find nothing to refuse or repair. */
inline int
strictFsck(const std::string &dir)
{
    std::optional<StoreFiles> files = readStoreFiles(dir);
    if (!files)
        return 1;
    OpenPlan plan = planOpen(*files);
    return plan.refusal.empty() && plan.findings.empty() ? 0 : 1;
}

} // namespace specfetch::test

#endif // SPECFETCH_TESTS_SERVE_STORE_TEST_SUPPORT_HH_
