/**
 * @file
 * Store-backed grid tests (runStoreSweep): a sweep killed at an
 * arbitrary point and rerun against its result store must be
 * byte-identical to an uninterrupted one. The kill is a real one — the
 * sweep runs in a fork()ed child and the injected crash _Exit()s it
 * mid-grid, either right after a put is durable (crash@N) or halfway
 * through writing one (tear@N) — and the parent reruns the grid from
 * the surviving store.
 */

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "fault/injector.hh"
#include "report/record.hh"
#include "serve/request.hh"
#include "serve/result_store.hh"
#include "serve/store_test_support.hh"

using namespace specfetch;

namespace {

class StoreSweep : public test::StoreDirTest
{
  protected:
    /** One bench_suite --store DIR invocation: open, sweep, close. */
    StoreSweepResult
    sweep(const FaultInjector *injector = nullptr, unsigned attempts = 3)
    {
        ResultStore store;
        ResultStore::Options storeOptions;
        storeOptions.dir = dir;
        storeOptions.injector = injector;
        EXPECT_TRUE(store.open(storeOptions));
        SweepOptions options;
        options.parallelism = 2;
        SweepGuard &guard = options.guard.emplace();
        guard.maxAttempts = attempts;
        guard.backoffBaseSeconds = 0.0;
        guard.injector = injector;
        // Deterministic record: results + config, no timing.
        StoreSweepResult result = runStoreSweep(
            store, specs, options,
            [this](size_t index, const SimResults &results) {
                return makeRunRecord(results, specs[index].config);
            });
        EXPECT_TRUE(store.close());
        return result;
    }

    /** Concatenated record dumps: the sweep's observable output. */
    static std::string
    dumpRecords(const StoreSweepResult &result)
    {
        std::string out;
        for (const JsonValue &record : result.records) {
            out += record.dump();
            out += '\n';
        }
        return out;
    }

    /**
     * Run the sweep in a fork()ed child under @p injectorSpec and
     * expect the injected fault to kill it with kCrashExitCode. The
     * parent has no sweep thread alive when it forks.
     */
    void
    runChildExpectingCrash(const std::string &injectorSpec)
    {
        pid_t pid = fork();
        ASSERT_GE(pid, 0) << "fork failed";
        if (pid == 0) {
            FaultInjector injector;
            if (!FaultInjector::parse(injectorSpec, injector))
                _Exit(3);
            sweep(&injector);
            _Exit(0);    // reached only if the injected crash missed
        }
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        ASSERT_EQ(WEXITSTATUS(status), kCrashExitCode)
            << "child should have died of " << injectorSpec;
    }

    /**
     * Kill the sweep with @p kind@N at three put ordinals. Each rerun
     * must resume the N + @p extra puts that reached the disk and
     * reproduce the clean run byte for byte; a third run must execute
     * nothing and leave a store the strict fsck accepts.
     */
    void
    killAndResume(const std::string &kind, size_t extra)
    {
        std::string reference = dumpRecords(sweep());
        for (size_t at : {size_t(7), size_t(31), size_t(94)}) {
            std::string fault = kind + "@" + std::to_string(at);
            SCOPED_TRACE(fault);
            test::wipeDir(dir);
            runChildExpectingCrash(fault);
            if (HasFatalFailure())
                return;

            StoreSweepResult resumed = sweep();
            EXPECT_TRUE(resumed.failures.empty());
            EXPECT_EQ(resumed.resumedRuns, at + extra);
            EXPECT_EQ(resumed.resumedRuns + resumed.executedRuns,
                      specs.size());
            EXPECT_EQ(dumpRecords(resumed), reference);

            StoreSweepResult again = sweep();
            EXPECT_EQ(again.executedRuns, 0u);
            EXPECT_EQ(dumpRecords(again), reference);
            EXPECT_EQ(test::strictFsck(dir), 0);
        }
    }

    /** 130 runs, so the kill ordinals match the CI job's. */
    const std::vector<RunSpec> specs = test::suiteGrid(10'000);
};

TEST_F(StoreSweep, CleanRunStoresEveryRun)
{
    StoreSweepResult result = sweep();
    EXPECT_TRUE(result.failures.empty());
    EXPECT_EQ(result.executedRuns, specs.size());
    EXPECT_EQ(result.resumedRuns, 0u);

    ResultStore store;
    ResultStore::Options options;
    options.dir = dir;
    ASSERT_TRUE(store.open(options));
    EXPECT_EQ(store.size(), specs.size());
    JsonValue record;
    ASSERT_TRUE(store.get(sweepRunKey(specs[42]), record));
    EXPECT_EQ(record, result.records[42]);
    ASSERT_TRUE(store.close());
    EXPECT_EQ(test::strictFsck(dir), 0);
}

TEST_F(StoreSweep, FullResumeExecutesNothing)
{
    StoreSweepResult clean = sweep();
    StoreSweepResult resumed = sweep();
    EXPECT_EQ(resumed.resumedRuns, specs.size());
    EXPECT_EQ(resumed.executedRuns, 0u);
    EXPECT_EQ(dumpRecords(resumed), dumpRecords(clean));
}

TEST_F(StoreSweep, ForeignStoreDegradesToFullRun)
{
    {
        ResultStore store;
        ResultStore::Options options;
        options.dir = dir;
        ASSERT_TRUE(store.open(options));
        JsonValue record = JsonValue::object();
        record.set("record", JsonValue::string("run"));
        ASSERT_TRUE(store.put("someother:0123456789abcdef", record));
        ASSERT_TRUE(store.close());
    }
    StoreSweepResult result = sweep();
    EXPECT_EQ(result.resumedRuns, 0u);
    EXPECT_EQ(result.executedRuns, specs.size());
    EXPECT_TRUE(result.failures.empty());
}

TEST_F(StoreSweep, KillAndResumeIsByteIdentical)
{
    // crash@N dies right after put N is durable.
    killAndResume("crash", 1);
}

TEST_F(StoreSweep, TornStoreHealsOnResume)
{
    // tear@N dies halfway through writing put N; the rerun's recovery
    // open cuts the torn stub off.
    killAndResume("tear", 0);
}

TEST_F(StoreSweep, QuarantineDoesNotKillTheSweep)
{
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("throw@4x*", injector));
    StoreSweepResult result = sweep(&injector, /*attempts=*/2);
    ASSERT_EQ(result.failures.size(), 1u);
    const SweepFailure &failure = result.failures.front();
    EXPECT_EQ(failure.index, 4u);
    EXPECT_EQ(failure.attempts, 2u);
    EXPECT_NE(failure.cause.find("injected fault"), std::string::npos);
    EXPECT_TRUE(result.records[4].isNull());
    EXPECT_EQ(result.executedRuns, specs.size() - 1);

    // A rerun picks up only the quarantined run (fault gone now).
    StoreSweepResult resumed = sweep();
    EXPECT_TRUE(resumed.failures.empty());
    EXPECT_EQ(resumed.resumedRuns, specs.size() - 1);
    EXPECT_EQ(resumed.executedRuns, 1u);
}

} // namespace
