/**
 * @file
 * TraceSnapshot record/replay contract tests. The load-bearing
 * property is bit-identity: a simulation fed by a SnapshotReplaySource
 * must produce *exactly* the SimResults of the same simulation fed by
 * the live executor, for every workload, policy, prefetch setting and
 * warmup — that equivalence is what lets runSweep record each
 * correct-path stream once and replay it across a whole grid.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/check_level.hh"
#include "core/simulator.hh"
#include "trace/snapshot.hh"
#include "workload/executor.hh"
#include "workload/registry.hh"
#include "workload/workload.hh"

namespace specfetch {
namespace {

constexpr uint64_t kBudget = 20'000;

Workload
smallWorkload()
{
    WorkloadProfile profile;
    profile.structureSeed = 5;
    profile.numFunctions = 8;
    profile.meanFuncBlocks = 14;
    profile.meanBlockLen = 4.0;
    return buildWorkload(profile);
}

TEST(Snapshot, ReplayStreamMatchesLiveExecutor)
{
    Workload w = smallWorkload();
    const uint64_t n = 50'000;

    Executor recorder(w.cfg, 42);
    TraceSnapshot snap = TraceSnapshot::record(recorder, n);
    ASSERT_EQ(snap.instructionCount(), n);

    Executor live(w.cfg, 42);
    SnapshotReplaySource replay(snap);
    DynInst expected, got;
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(live.next(expected));
        ASSERT_TRUE(replay.next(got)) << "instruction " << i;
        ASSERT_EQ(got.pc, expected.pc) << "instruction " << i;
        ASSERT_EQ(got.cls, expected.cls) << "instruction " << i;
        ASSERT_EQ(got.taken, expected.taken) << "instruction " << i;
        if (isControl(expected.cls)) {
            ASSERT_EQ(got.target, expected.target) << "instruction " << i;
        }
    }
    EXPECT_FALSE(replay.next(got));
}

TEST(Snapshot, EncodingIsCompact)
{
    Workload w = smallWorkload();
    Executor recorder(w.cfg, 42);
    TraceSnapshot snap = TraceSnapshot::record(recorder, kBudget);
    // One 16-byte record per control instruction at the workloads'
    // ~20-25% control fraction: well under 8 bytes per instruction,
    // far under a DynInst-per-instruction encoding.
    EXPECT_LT(snap.byteSize(), snap.instructionCount() * 8);
    EXPECT_GT(snap.byteSize(), 0u);
}

TEST(Snapshot, ExhaustedReplayStopsTheRunEarly)
{
    Workload w = smallWorkload();
    Executor recorder(w.cfg, 42);
    TraceSnapshot snap = TraceSnapshot::record(recorder, 5'000);

    SimConfig config;
    config.instructionBudget = kBudget; // more than the snapshot holds
    SimResults results = runSimulation(w, config, snap);
    EXPECT_EQ(results.instructions, 5'000u);
}

TEST(Snapshot, EmptySnapshotYieldsNothing)
{
    Workload w = smallWorkload();
    Executor recorder(w.cfg, 42);
    TraceSnapshot snap = TraceSnapshot::record(recorder, 0);
    EXPECT_EQ(snap.instructionCount(), 0u);
    EXPECT_EQ(snap.byteSize(), 0u);

    SnapshotReplaySource replay(snap);
    DynInst inst;
    EXPECT_FALSE(replay.next(inst));
    Addr pc = 0;
    EXPECT_EQ(replay.takePlainRun(pc, 100), 0u);
}

TEST(Snapshot, ChunkedPlainRunsReplayIdentically)
{
    Workload w = smallWorkload();
    const uint64_t n = 30'000;

    Executor a(w.cfg, 42);
    TraceSnapshot whole = TraceSnapshot::record(a, n);
    Executor b(w.cfg, 42);
    TraceSnapshot chunked =
        TraceSnapshot::record(b, n, /*max_plain_run=*/3);

    // Chunking costs extra run-only records but must not change the
    // replayed stream.
    EXPECT_GT(chunked.records().size(), whole.records().size());
    SnapshotReplaySource lhs(whole), rhs(chunked);
    DynInst x, y;
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(lhs.next(x));
        ASSERT_TRUE(rhs.next(y)) << "instruction " << i;
        ASSERT_EQ(x.pc, y.pc) << "instruction " << i;
        ASSERT_EQ(x.cls, y.cls) << "instruction " << i;
        ASSERT_EQ(x.taken, y.taken) << "instruction " << i;
        ASSERT_EQ(x.target, y.target) << "instruction " << i;
    }
    EXPECT_FALSE(rhs.next(y));
}

TEST(Snapshot, TakePlainRunInterleavesWithNext)
{
    Workload w = smallWorkload();
    const uint64_t n = 30'000;
    Executor recorder(w.cfg, 42);
    TraceSnapshot snap = TraceSnapshot::record(recorder, n);

    // Consume one cursor instruction-by-instruction and the other via
    // the bulk API; the streams must agree exactly.
    SnapshotReplaySource scalar(snap), bulk(snap);
    DynInst expected, got;
    uint64_t seen = 0;
    while (seen < n) {
        Addr run_pc = 0;
        uint32_t run = bulk.takePlainRun(run_pc, 7);
        if (run > 0) {
            for (uint32_t i = 0; i < run; ++i) {
                ASSERT_TRUE(scalar.next(expected));
                ASSERT_EQ(expected.cls, InstClass::Plain);
                ASSERT_EQ(expected.pc, run_pc + Addr(i) * kInstBytes)
                    << "instruction " << seen + i;
            }
            seen += run;
            continue;
        }
        ASSERT_TRUE(bulk.next(got));
        ASSERT_TRUE(scalar.next(expected));
        ASSERT_EQ(got.pc, expected.pc) << "instruction " << seen;
        ASSERT_EQ(got.cls, expected.cls) << "instruction " << seen;
        ASSERT_EQ(got.taken, expected.taken) << "instruction " << seen;
        ASSERT_EQ(got.target, expected.target) << "instruction " << seen;
        ++seen;
    }
    EXPECT_FALSE(bulk.next(got));
    EXPECT_FALSE(scalar.next(expected));
}

/** An Executor seen through next() alone: the recorder's step path. */
class StepOnlySource final : public InstructionSource
{
  public:
    explicit StepOnlySource(Executor &executor) : inner(executor) {}

    bool next(DynInst &out) override { return inner.next(out); }

  private:
    Executor &inner;
};

/**
 * The recorder takes the executor's block bodies in bulk; the bytes it
 * writes must be those it writes stepping one instruction at a time,
 * for every profile and at chunk limits that split every run, some
 * runs, or none.
 */
TEST(SnapshotTest, BulkRecordMatchesStepRecord)
{
    const uint64_t n = 50'000;
    for (const std::string &name : benchmarkNames()) {
        const Workload &w = *sharedWorkload(name);
        for (uint32_t limit : {1u, 7u, TraceSnapshot::kMaxPlainRun}) {
            SCOPED_TRACE(name + " max_plain_run " + std::to_string(limit));
            Executor bulk(w.cfg, 42);
            Executor stepped(w.cfg, 42);
            StepOnlySource step(stepped);
            std::vector<uint8_t> bulk_bytes, step_bytes;
            TraceSnapshot::record(bulk, n, limit).serialize(bulk_bytes);
            TraceSnapshot::record(step, n, limit).serialize(step_bytes);
            EXPECT_EQ(bulk_bytes, step_bytes);
            EXPECT_EQ(bulk.blockVisits(), stepped.blockVisits());
        }
    }
}

TEST(SnapshotDeath, NonContinuousSourcePanics)
{
    /** A source whose second instruction teleports. */
    class BrokenSource : public InstructionSource
    {
      public:
        bool
        next(DynInst &out) override
        {
            out = DynInst{count == 0 ? Addr{0x1000} : Addr{0x9000},
                          InstClass::Plain, false, 0};
            ++count;
            return true;
        }

      private:
        int count = 0;
    };
    BrokenSource source;
    EXPECT_DEATH(TraceSnapshot::record(source, 10),
                 "not path-continuous");
}

TEST(SnapshotDeath, NonContinuousPlainRunPanics)
{
    /** A bulk source whose second plain run starts off the path. */
    class BrokenRunSource : public InstructionSource
    {
      public:
        bool
        next(DynInst &) override
        {
            return false;
        }

        uint32_t
        takePlainRun(Addr &pc_out, uint32_t max) override
        {
            pc_out = runs++ == 0 ? Addr{0x1000} : Addr{0x9000};
            return max < 4 ? max : 4;
        }

      private:
        int runs = 0;
    };
    BrokenRunSource source;
    EXPECT_DEATH(TraceSnapshot::record(source, 10),
                 "not path-continuous at instruction 4");
}

TEST(SnapshotDeath, ZeroPlainRunLimitPanics)
{
    Workload w = smallWorkload();
    Executor recorder(w.cfg, 42);
    EXPECT_DEATH(TraceSnapshot::record(recorder, 10, 0),
                 "plain runs cannot be empty");
}

/**
 * The headline guarantee, benchmark by benchmark: replayed simulation
 * results are bit-identical to live ones for every policy and
 * prefetch setting (the exact grid bench_suite sweeps).
 */
class SnapshotEquivalence : public ::testing::TestWithParam<std::string>
{};

TEST_P(SnapshotEquivalence, ReplayedRunsMatchLiveBitExactly)
{
    std::shared_ptr<const Workload> workload = sharedWorkload(GetParam());
    Executor recorder(workload->cfg, 42);
    TraceSnapshot snap = TraceSnapshot::record(recorder, kBudget);

    for (int p = 0; p < 5; ++p) {
        for (bool prefetch : {false, true}) {
            SimConfig config;
            config.policy = static_cast<FetchPolicy>(p);
            config.nextLinePrefetch = prefetch;
            config.instructionBudget = kBudget;
            SimResults live = runSimulation(*workload, config);
            SimResults replay = runSimulation(*workload, config, snap);
            EXPECT_EQ(replay, live)
                << GetParam() << ", " << toString(config.policy)
                << (prefetch ? ", prefetch" : "");
        }
    }
}

TEST_P(SnapshotEquivalence, WarmupConsumesTheSnapshotPrefix)
{
    std::shared_ptr<const Workload> workload = sharedWorkload(GetParam());
    SimConfig config;
    config.warmupInstructions = 5'000;
    config.instructionBudget = kBudget;

    // The engine consumes warmup + budget instructions from its
    // source, so that is what the snapshot must cover.
    Executor recorder(workload->cfg, 42);
    TraceSnapshot snap = TraceSnapshot::record(
        recorder, config.warmupInstructions + config.instructionBudget);

    SimResults live = runSimulation(*workload, config);
    SimResults replay = runSimulation(*workload, config, snap);
    EXPECT_EQ(replay, live) << GetParam();
}

TEST_P(SnapshotEquivalence, ParanoidAuditPassesOverReplay)
{
    std::shared_ptr<const Workload> workload = sharedWorkload(GetParam());
    Executor recorder(workload->cfg, 42);
    TraceSnapshot snap = TraceSnapshot::record(recorder, kBudget);

    SimConfig config;
    config.instructionBudget = kBudget;
    config.checkLevel = CheckLevel::Paranoid;
    SimResults audited = runSimulation(*workload, config, snap);

    SimConfig plain = config;
    plain.checkLevel = CheckLevel::Off;
    EXPECT_EQ(audited, runSimulation(*workload, plain, snap))
        << GetParam() << ": audits must observe, never perturb";
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SnapshotEquivalence,
    ::testing::ValuesIn(benchmarkNames()),
    [](const auto &param_info) {
        std::string name = param_info.param;
        for (char &c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

} // namespace
} // namespace specfetch
