/**
 * @file
 * Unit and integration tests for the interval sampler (src/obs):
 * epoch tiling is exact, concatenated deltas sum to the run's
 * end-of-run counters, and arming the sampler never perturbs the
 * simulation itself.
 */

#include "obs/interval_sampler.hh"

#include <gtest/gtest.h>

#include "core/simulator.hh"
#include "obs/obs_record.hh"
#include "trace/snapshot.hh"
#include "util/logging.hh"
#include "workload/executor.hh"
#include "workload/registry.hh"

using namespace specfetch;

namespace {

constexpr uint64_t kBudget = 50'000;
constexpr uint64_t kInterval = 8'000;

SimConfig
sampledConfig(uint64_t interval, FetchPolicy policy = FetchPolicy::Optimistic)
{
    SimConfig config;
    config.instructionBudget = kBudget;
    config.policy = policy;
    config.sampleInterval = interval;
    return config;
}

/** Run li under @p config and return (results, observations). */
SimResults
observe(const SimConfig &config, RunObservations &out)
{
    return runSimulation(*sharedWorkload("li"), config, out);
}

std::string
seriesDump(const std::vector<EpochRecord> &epochs)
{
    std::string out;
    for (const EpochRecord &epoch : epochs)
        out += toJson(epoch).dump() + "\n";
    return out;
}

TEST(IntervalSampler, ZeroIntervalPanics)
{
    ScopedThrowOnError guard;
    EXPECT_THROW(IntervalSampler(0), SimulationError);
}

TEST(IntervalSampler, EpochsTileTheRunExactly)
{
    RunObservations obs;
    SimResults results = observe(sampledConfig(kInterval), obs);

    // 50k at 8k per epoch: six full epochs plus a 2k partial tail.
    ASSERT_EQ(obs.epochs.size(), 7u);
    EXPECT_EQ(obs.sampleInterval, kInterval);
    uint64_t expected_first = 0;
    for (size_t i = 0; i < obs.epochs.size(); ++i) {
        const EpochRecord &epoch = obs.epochs[i];
        EXPECT_EQ(epoch.epoch, i);
        EXPECT_EQ(epoch.firstInstruction, expected_first);
        if (i + 1 < obs.epochs.size()) {
            EXPECT_EQ(epoch.instructions(), kInterval)
                << "interior epoch " << i << " is not interval-sized";
            EXPECT_FALSE(epoch.partial);
        }
        expected_first = epoch.lastInstruction;
    }
    const EpochRecord &tail = obs.epochs.back();
    EXPECT_TRUE(tail.partial);
    EXPECT_EQ(tail.instructions(), kBudget % kInterval);
    EXPECT_EQ(tail.lastInstruction, results.instructions);
}

TEST(IntervalSampler, ExactMultipleBudgetHasNoPartialEpoch)
{
    RunObservations obs;
    observe(sampledConfig(10'000), obs);
    ASSERT_EQ(obs.epochs.size(), 5u);
    for (const EpochRecord &epoch : obs.epochs) {
        EXPECT_FALSE(epoch.partial);
        EXPECT_EQ(epoch.instructions(), 10'000u);
    }
}

/**
 * Run li under @p config and check that its epochs sum exactly to the
 * run's end-of-run stats: every table counter, every penalty
 * component, the slot clock and the instruction count.
 */
SimResults
expectEpochsSumToTotals(const SimConfig &config, RunObservations &obs)
{
    SimResults r = observe(config, obs);
    RunCounters sum;
    PenaltyBreakdown penalty;
    uint64_t slots = 0;
    for (const EpochRecord &epoch : obs.epochs) {
        sum += epoch;
        penalty += epoch.penalty;
        slots += epoch.slots;
    }
    EXPECT_EQ(obs.epochs.empty() ? 0 : obs.epochs.back().lastInstruction,
              r.instructions);
    EXPECT_EQ(slots, static_cast<uint64_t>(r.finalSlot));
    EXPECT_EQ(penalty, r.penalty);
    for (const CounterField &field : kCounterFields)
        EXPECT_EQ(sum.*field.member, r.*field.member) << field.key;
    return r;
}

TEST(IntervalSampler, EpochsSumToRunTotals)
{
    RunObservations obs;
    expectEpochsSumToTotals(sampledConfig(kInterval), obs);
}

TEST(IntervalSampler, SamplingNeverPerturbsResults)
{
    for (FetchPolicy policy : allPolicies()) {
        SimConfig plain = sampledConfig(0, policy);
        plain.sampleInterval = 0;
        SimResults unsampled =
            runSimulation(*sharedWorkload("li"), plain);

        RunObservations obs;
        SimResults sampled =
            observe(sampledConfig(kInterval, policy), obs);
        EXPECT_EQ(sampled, unsampled)
            << toString(policy) << " diverged with the sampler armed";
        EXPECT_FALSE(obs.epochs.empty());
    }
}

TEST(IntervalSampler, PrefetchRunEpochsCarryPrefetchDeltas)
{
    SimConfig config = sampledConfig(kInterval);
    config.nextLinePrefetch = true;
    RunObservations obs;
    EXPECT_GT(expectEpochsSumToTotals(config, obs).prefetchesIssued, 0u);
}

TEST(IntervalSampler, WarmupIsExcludedFromTheSeries)
{
    // The series is in post-warmup coordinates: it starts at zero and
    // covers exactly the measured instructions, slots and counts.
    SimConfig config = sampledConfig(kInterval);
    config.warmupInstructions = 12'000;
    RunObservations obs;
    expectEpochsSumToTotals(config, obs);
    ASSERT_FALSE(obs.epochs.empty());
    EXPECT_EQ(obs.epochs.front().firstInstruction, 0u);
}

TEST(IntervalSampler, SnapshotReplayYieldsIdenticalEpochs)
{
    const Workload &workload = *sharedWorkload("li");
    SimConfig config = sampledConfig(kInterval);

    RunObservations live;
    runSimulation(workload, config, live);

    Executor recorder(workload.cfg, config.runSeed);
    TraceSnapshot snapshot = TraceSnapshot::record(recorder, kBudget);
    RunObservations replayed;
    runSimulation(workload, config, snapshot, replayed);

    EXPECT_EQ(seriesDump(live.epochs), seriesDump(replayed.epochs));
}

} // namespace
