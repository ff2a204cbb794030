/**
 * @file
 * Guarded runSweep contract tests: with SweepOptions::guard set, a
 * sweep must be bit-exact with the unguarded sweep when nothing fails,
 * heal transient injected faults (throw, timeout, corrupt snapshot)
 * through its retry loop, and quarantine persistent failures without
 * losing the rest of the grid.
 */

#include <gtest/gtest.h>

#include <mutex>

#include "core/simulator.hh"
#include "core/sweep.hh"
#include "fault/injector.hh"

using namespace specfetch;

namespace {

std::vector<RunSpec>
smallGrid()
{
    SimConfig base;
    base.instructionBudget = 50'000;
    std::vector<RunSpec> specs;
    for (const char *name : {"li", "gcc"}) {
        for (FetchPolicy policy :
             {FetchPolicy::Oracle, FetchPolicy::Resume,
              FetchPolicy::Pessimistic}) {
            SimConfig config = base;
            config.policy = policy;
            specs.push_back(RunSpec{name, config});
        }
    }
    return specs;
}

/** Two workers, two attempts, no real backoff, faults from
 *  @p injector (may be null). */
SweepOptions
guardedOptions(const FaultInjector *injector = nullptr)
{
    SweepOptions options;
    options.parallelism = 2;
    SweepGuard &guard = options.guard.emplace();
    guard.maxAttempts = 2;
    guard.backoffBaseSeconds = 0.0;
    guard.injector = injector;
    return options;
}

} // namespace

TEST(GuardedSweep, MatchesPlainSweepWhenNothingFails)
{
    std::vector<RunSpec> specs = smallGrid();
    std::vector<SimResults> plain = runSweep(specs, 2);
    SweepOutcome guarded = runSweep(specs, guardedOptions());

    EXPECT_TRUE(guarded.allCompleted());
    EXPECT_TRUE(guarded.failures.empty());
    ASSERT_EQ(guarded.results.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(guarded.completed[i], 1);
        EXPECT_EQ(guarded.results[i], plain[i]) << "spec " << i;
    }
}

TEST(GuardedSweep, TransientThrowHealsViaRetry)
{
    std::vector<RunSpec> specs = smallGrid();
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("throw@2", injector));

    std::vector<SimResults> plain = runSweep(specs, 2);
    SweepOutcome guarded = runSweep(specs, guardedOptions(&injector));

    EXPECT_TRUE(guarded.allCompleted());
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(guarded.results[i], plain[i])
            << "retry must not perturb results (spec " << i << ")";
}

TEST(GuardedSweep, TransientTimeoutHealsViaRetry)
{
    std::vector<RunSpec> specs = smallGrid();
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("timeout@1", injector));

    std::vector<SimResults> plain = runSweep(specs, 2);
    SweepOutcome guarded = runSweep(specs, guardedOptions(&injector));

    EXPECT_TRUE(guarded.allCompleted());
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(guarded.results[i], plain[i]) << "spec " << i;
}

TEST(GuardedSweep, CorruptSnapshotDegradesToLiveExecution)
{
    // Every benchmark has three consumers, so the sweep records shared
    // snapshots; corrupting run 0's copy must be *detected* (digest
    // check) and degraded to live execution — same results, no crash,
    // no retry consumed (the fallback happens within attempt 1).
    std::vector<RunSpec> specs = smallGrid();
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("corrupt@0", injector));
    SweepOptions options = guardedOptions(&injector);
    options.guard->maxAttempts = 1;    // prove no retry is needed

    std::vector<SimResults> plain = runSweep(specs, 2);
    SweepOutcome guarded = runSweep(specs, options);

    EXPECT_TRUE(guarded.allCompleted());
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(guarded.results[i], plain[i]) << "spec " << i;
}

TEST(GuardedSweep, PersistentFailureIsQuarantined)
{
    std::vector<RunSpec> specs = smallGrid();
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("throw@3x*", injector));

    std::vector<SimResults> plain = runSweep(specs, 2);
    SweepOutcome guarded = runSweep(specs, guardedOptions(&injector));

    EXPECT_FALSE(guarded.allCompleted());
    ASSERT_EQ(guarded.failures.size(), 1u);
    const SweepFailure &failure = guarded.failures.front();
    EXPECT_EQ(failure.index, 3u);
    EXPECT_EQ(failure.benchmark, specs[3].benchmark);
    EXPECT_EQ(failure.attempts, 2u);
    EXPECT_NE(failure.cause.find("injected fault"), std::string::npos);
    EXPECT_FALSE(failure.config.empty());

    for (size_t i = 0; i < specs.size(); ++i) {
        if (i == 3) {
            EXPECT_EQ(guarded.completed[i], 0);
            continue;
        }
        EXPECT_EQ(guarded.completed[i], 1);
        EXPECT_EQ(guarded.results[i], plain[i])
            << "a quarantined neighbour must not disturb spec " << i;
    }
}

TEST(GuardedSweep, OnRunCompleteFiresOncePerCompletedRun)
{
    std::vector<RunSpec> specs = smallGrid();
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("throw@5x*", injector));
    SweepOptions options = guardedOptions(&injector);

    std::vector<int> calls(specs.size(), 0);
    std::mutex mutex;
    options.onRunComplete = [&](size_t index, const SimResults &results) {
        std::lock_guard<std::mutex> lock(mutex);
        ++calls[index];
        EXPECT_EQ(results.workload, specs[index].benchmark);
    };

    SweepOutcome guarded = runSweep(specs, options);
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(calls[i], i == 5 ? 0 : 1) << "spec " << i;
    EXPECT_EQ(guarded.failures.size(), 1u);
}

TEST(GuardedSweep, EmptyGridIsANoOp)
{
    SweepOutcome guarded = runSweep({}, guardedOptions());
    EXPECT_TRUE(guarded.allCompleted());
    EXPECT_TRUE(guarded.results.empty());
}
