/**
 * @file
 * runSweep contract tests: serial and parallel sweeps must produce
 * identical results in submission order, timing capture must cover
 * every spec, and benchBudget must honour the SPECFETCH_BUDGET
 * environment variable (K/M/G suffixes, garbage rejected).
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/miss_classifier.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "fault/injector.hh"
#include "trace/snapshot.hh"
#include "workload/registry.hh"

using namespace specfetch;

namespace {

std::vector<RunSpec>
smallGrid()
{
    SimConfig base;
    base.instructionBudget = 50'000;
    std::vector<RunSpec> specs;
    for (const char *name : {"li", "gcc", "doduc"}) {
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

} // namespace

TEST(Sweep, ParallelMatchesSerialBitExactly)
{
    std::vector<RunSpec> specs = smallGrid();
    std::vector<SimResults> serial = runSweep(specs, /*parallelism=*/1);
    std::vector<SimResults> parallel = runSweep(specs, /*parallelism=*/4);

    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(serial[i], parallel[i])
            << "spec " << i << " (" << specs[i].benchmark << ", "
            << toString(specs[i].config.policy) << ") diverged";
    }
}

TEST(Sweep, ResultsComeBackInSubmissionOrder)
{
    std::vector<RunSpec> specs = smallGrid();
    std::vector<SimResults> results = runSweep(specs, /*parallelism=*/4);
    ASSERT_EQ(results.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(results[i].workload, specs[i].benchmark);
        EXPECT_EQ(results[i].policy, specs[i].config.policy);
    }
}

TEST(Sweep, RepeatedSweepIsDeterministic)
{
    std::vector<RunSpec> specs = smallGrid();
    std::vector<SimResults> first = runSweep(specs, /*parallelism=*/2);
    std::vector<SimResults> second = runSweep(specs, /*parallelism=*/2);
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(first[i], second[i]);
}

TEST(Sweep, SnapshotReplayPathMatchesSingleRuns)
{
    // Every benchmark here appears under three policies, so each
    // (benchmark, seed) stream has three consumers and the sweep
    // records and replays it; runBenchmark always executes live.
    std::vector<RunSpec> specs = smallGrid();
    std::vector<SimResults> swept = runSweep(specs, /*parallelism=*/2);
    ASSERT_EQ(swept.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(swept[i],
                  runBenchmark(specs[i].benchmark, specs[i].config))
            << "spec " << i << " (" << specs[i].benchmark << ", "
            << toString(specs[i].config.policy)
            << "): replayed sweep diverged from a live run";
    }
}

TEST(Sweep, DistinctSeedsGetDistinctStreams)
{
    SimConfig base;
    base.instructionBudget = 50'000;
    std::vector<RunSpec> specs;
    for (uint64_t seed : {7u, 8u}) {
        for (FetchPolicy policy :
             {FetchPolicy::Resume, FetchPolicy::Pessimistic}) {
            SimConfig config = base;
            config.runSeed = seed;
            config.policy = policy;
            specs.push_back(RunSpec{"gcc", config});
        }
    }
    std::vector<SimResults> swept = runSweep(specs, /*parallelism=*/2);
    // Each seed's pair shares one snapshot; sharing across seeds
    // would replay the wrong dynamic stream and diverge from live.
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(swept[i],
                  runBenchmark(specs[i].benchmark, specs[i].config));
    }
    EXPECT_NE(swept[0], swept[2])
        << "different run seeds should produce different dynamics";
}

TEST(Sweep, MixedWarmupSharesTheLongestSnapshot)
{
    // Same stream, different (warmup, budget) splits: the recorded
    // snapshot must cover the hungriest consumer and still replay
    // bit-identically for the shorter ones.
    std::vector<RunSpec> specs;
    for (uint64_t warmup : {0u, 10'000u, 30'000u}) {
        SimConfig config;
        config.warmupInstructions = warmup;
        config.instructionBudget = 40'000;
        specs.push_back(RunSpec{"li", config});
    }
    std::vector<SimResults> swept = runSweep(specs, /*parallelism=*/2);
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(swept[i],
                  runBenchmark(specs[i].benchmark, specs[i].config))
            << "warmup " << specs[i].config.warmupInstructions;
    }
}

TEST(Sweep, ClassificationsMatchLiveClassifier)
{
    // Every profile under variants the taxonomy ignores (the first
    // kSharedRow, one row) and two it does not (a row each). Each
    // stream has run and classification consumers, so the sweep
    // records it and the classify stage replays it.
    SimConfig base;
    base.instructionBudget = 20'000;
    std::vector<SimConfig> variants(7, base);
    variants[1].warmupInstructions = 5'000;
    variants[2].nextLinePrefetch = true;
    variants[3].sampleInterval = 5'000;
    variants[3].setHeatmap = true;
    variants[4].adaptiveSelector = SelectorKind::Bandit;
    variants[4].adaptiveInterval = 5'000;
    variants[4].adaptiveEpsilon = 0.3;
    variants[5].icache.sizeBytes = 16 * 1024;
    variants[5].icache.ways = 2;
    variants[6].missPenaltyCycles = 20;
    constexpr size_t kSharedRow = 5;

    std::vector<RunSpec> specs;
    for (const std::string &name : benchmarkNames()) {
        for (const SimConfig &config : variants)
            specs.push_back(RunSpec{name, config});
    }
    std::vector<Classification> classifications;
    SweepOptions options;
    options.parallelism = 4;
    options.classifications = &classifications;
    runSweep(specs, options);
    ASSERT_EQ(classifications.size(), specs.size());

    for (size_t row = 0; row < specs.size(); row += variants.size()) {
        Workload workload = buildWorkload(getProfile(specs[row].benchmark));
        for (size_t v = 0; v < variants.size(); ++v) {
            const RunSpec &spec = specs[row + v];
            EXPECT_EQ(classifications[row + v],
                      classifyMisses(workload, spec.config))
                << spec.benchmark << " variant " << v
                << ": replayed classification diverged from live";
            if (v < kSharedRow) {
                EXPECT_EQ(classifications[row + v], classifications[row])
                    << spec.benchmark << " variant " << v
                    << " left its row";
            }
        }
    }

    // A guarded sweep verifies each snapshot before replaying it.
    std::vector<Classification> guarded;
    options.classifications = &guarded;
    options.guard.emplace();
    runSweep(specs, options);
    EXPECT_EQ(guarded, classifications);
}

TEST(Sweep, KeptStreamsAreRecordedThenReplayed)
{
    // With a caller's map, even a single consumer's stream is recorded
    // and kept. A later sweep replays it when it is long enough and
    // records a longer one when it is not. Every run equals a live one.
    SimConfig config;
    config.instructionBudget = 30'000;
    SimConfig resume = config;
    resume.policy = FetchPolicy::Resume;
    SimConfig longer = config;
    longer.warmupInstructions = 10'000;

    KeptStreams kept;
    SweepOptions options;
    options.streams = &kept;
    auto runOne = [&](const SimConfig &spec) {
        return runSweep({RunSpec{"li", spec}}, options).results.at(0);
    };
    EXPECT_EQ(runOne(config), runBenchmark("li", config));
    ASSERT_EQ(kept.size(), 1u);
    const std::shared_ptr<const TraceSnapshot> recorded =
        kept.at(StreamKey{"li", config.runSeed});
    EXPECT_EQ(recorded->instructionCount(), 30'000u);

    EXPECT_EQ(runOne(resume), runBenchmark("li", resume));
    EXPECT_EQ(kept.at(StreamKey{"li", config.runSeed}), recorded);

    EXPECT_EQ(runOne(longer), runBenchmark("li", longer));
    EXPECT_EQ(kept.at(StreamKey{"li", config.runSeed})->instructionCount(),
              40'000u);
}

TEST(Sweep, RefusedKeptStreamIsDropped)
{
    // A guarded replay whose snapshot fails its digest runs live, and
    // the sweep drops the kept stream instead of keeping a damaged one.
    SimConfig config;
    config.instructionBudget = 30'000;
    KeptStreams kept;
    SweepOptions options;
    options.streams = &kept;
    runSweep({RunSpec{"li", config}}, options);
    ASSERT_EQ(kept.size(), 1u);

    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("corrupt@0", injector));
    options.guard.emplace().injector = &injector;
    config.policy = FetchPolicy::Decode;
    SweepOutcome outcome = runSweep({RunSpec{"li", config}}, options);
    ASSERT_TRUE(outcome.allCompleted());
    EXPECT_EQ(outcome.results[0], runBenchmark("li", config));
    EXPECT_TRUE(kept.empty());
}

TEST(Sweep, TimingCoversEverySpec)
{
    std::vector<RunSpec> specs = smallGrid();
    SweepTiming timing;
    runSweep(specs, /*parallelism=*/2, &timing);

    ASSERT_EQ(timing.perRunSeconds.size(), specs.size());
    for (double seconds : timing.perRunSeconds)
        EXPECT_GE(seconds, 0.0);
    EXPECT_GT(timing.totalSeconds, 0.0);
    EXPECT_GE(timing.totalSeconds, timing.runSeconds);
    EXPECT_GE(timing.workloadBuildSeconds, 0.0);
    EXPECT_GE(timing.snapshotRecordSeconds, 0.0);
}

TEST(Sweep, TimingResetBetweenCalls)
{
    std::vector<RunSpec> one{smallGrid()[0]};
    SweepTiming timing;
    timing.perRunSeconds.assign(99, 1.0); // stale garbage
    runSweep(one, 1, &timing);
    EXPECT_EQ(timing.perRunSeconds.size(), 1u);
}

class BenchBudgetEnv : public ::testing::Test
{
  protected:
    void SetUp() override { unsetenv("SPECFETCH_BUDGET"); }
    void TearDown() override { unsetenv("SPECFETCH_BUDGET"); }

    void
    withEnv(const char *value)
    {
        setenv("SPECFETCH_BUDGET", value, /*overwrite=*/1);
    }
};

TEST_F(BenchBudgetEnv, FallbackWhenUnset)
{
    EXPECT_EQ(benchBudget(123), 123u);
}

TEST_F(BenchBudgetEnv, PlainCount)
{
    withEnv("250000");
    EXPECT_EQ(benchBudget(1), 250'000u);
}

TEST_F(BenchBudgetEnv, DecimalSuffixes)
{
    withEnv("2K");
    EXPECT_EQ(benchBudget(1), 2'000u);
    withEnv("3M");
    EXPECT_EQ(benchBudget(1), 3'000'000u);
    withEnv("1G");
    EXPECT_EQ(benchBudget(1), 1'000'000'000u);
}

TEST_F(BenchBudgetEnv, LowercaseSuffix)
{
    withEnv("4m");
    EXPECT_EQ(benchBudget(1), 4'000'000u);
}

TEST_F(BenchBudgetEnv, InvalidInputFallsBack)
{
    for (const char *bad : {"", "abc", "12Q", "-5", "K", "1.5M"}) {
        withEnv(bad);
        EXPECT_EQ(benchBudget(777), 777u) << "input: " << bad;
    }
}

TEST_F(BenchBudgetEnv, ZeroFallsBack)
{
    withEnv("0");
    EXPECT_EQ(benchBudget(777), 777u);
}
