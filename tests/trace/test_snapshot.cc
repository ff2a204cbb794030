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
#include "core/engine_test_support.hh"
#include "core/simulator.hh"
#include "trace/snapshot.hh"
#include "workload/executor.hh"
#include "workload/registry.hh"
#include "workload/workload.hh"

namespace specfetch {
namespace {

constexpr uint64_t kBudget = 20'000;

static_assert(sizeof(TraceSnapshot::ControlRecord) == 8,
              "one control instruction costs 8 bytes");

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
    // One 8-byte record per control instruction at the workloads'
    // 1.6-20% control fractions: under 2 bytes per instruction, far
    // under a DynInst-per-instruction encoding.
    EXPECT_LT(snap.byteSize(), snap.instructionCount() * 2);
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

/** A control instruction, its target @p offset instructions away. */
struct ScriptedControl
{
    InstClass cls;
    bool taken;
    int64_t offset;
};

/** One plain and then one control per entry, each plain at the pc its
 *  predecessor leads to. */
std::vector<DynInst>
controlScript(Addr start, const std::vector<ScriptedControl> &controls)
{
    std::vector<DynInst> script;
    Addr pc = start;
    for (const ScriptedControl &c : controls) {
        script.push_back(DynInst{pc, InstClass::Plain, false, 0});
        pc += kInstBytes;
        DynInst control{pc, c.cls, c.taken, pc + Addr(c.offset) * kInstBytes};
        script.push_back(control);
        pc = control.nextPc();
    }
    return script;
}

TraceSnapshot
recordScript(const std::vector<DynInst> &script)
{
    test::ScriptedSource source(script);
    return TraceSnapshot::record(source, script.size());
}

TEST(Snapshot, ExtremeTargetOffsetsRoundTrip)
{
    // Targets (2^31 - 1) instructions ahead of and behind their
    // control, taken or not, through record -> serialize ->
    // deserialize -> replay.
    const int64_t far = (int64_t(1) << 31) - 1;
    const std::vector<DynInst> script = controlScript(
        Addr(1) << 40, {{InstClass::Jump, true, far},
                        {InstClass::CondBranch, true, -far},
                        {InstClass::CondBranch, false, far},
                        {InstClass::Call, true, far},
                        {InstClass::CondBranch, false, -far},
                        {InstClass::Return, true, -far},
                        {InstClass::IndirectJump, true, far},
                        {InstClass::IndirectCall, true, -far}});
    std::vector<uint8_t> bytes;
    recordScript(script).serialize(bytes);
    TraceSnapshot restored;
    std::string error;
    ASSERT_TRUE(TraceSnapshot::deserialize(bytes.data(), bytes.size(),
                                           restored, &error))
        << error;

    SnapshotReplaySource replay(restored);
    DynInst got;
    for (size_t i = 0; i < script.size(); ++i) {
        ASSERT_TRUE(replay.next(got)) << "instruction " << i;
        EXPECT_EQ(got.pc, script[i].pc) << "instruction " << i;
        EXPECT_EQ(got.cls, script[i].cls) << "instruction " << i;
        EXPECT_EQ(got.taken, script[i].taken) << "instruction " << i;
        EXPECT_EQ(got.target, script[i].target) << "instruction " << i;
    }
    EXPECT_FALSE(replay.next(got));
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
    EXPECT_DEATH(TraceSnapshot::record(recorder, 10,
                                       TraceSnapshot::kMaxPlainRun + 1),
                 "plain runs cannot exceed");
}

TEST(SnapshotDeath, TargetBeyondOffsetRangePanics)
{
    // One instruction past what a signed 32-bit offset reaches, each
    // way; the control is instruction 1, at 0x10004.
    for (int64_t offset : {int64_t(1) << 31, -(int64_t(1) << 31) - 1}) {
        EXPECT_DEATH(recordScript(controlScript(
                         0x10000, {{InstClass::Jump, true, offset}})),
                     "control at instruction 1 \\(pc 0x10004\\): target "
                     "0x[0-9a-f]+ is beyond a 32-bit instruction offset");
    }
}

TEST(SnapshotDeath, MisalignedTargetPanics)
{
    // Taken or not: the engine walks a not-taken conditional's target
    // as a misfetch path.
    for (bool taken : {true, false}) {
        EXPECT_DEATH(
            recordScript({DynInst{0x10000, InstClass::Plain, false, 0},
                          DynInst{0x10004, InstClass::CondBranch, taken,
                                  0x1006}}),
            "control at instruction 1 \\(pc 0x10004\\): target 0x1006 "
            "misaligned");
    }
}

TEST(SnapshotDeath, UntakenUnconditionalPanics)
{
    EXPECT_DEATH(recordScript(controlScript(
                     0x10000, {{InstClass::Call, false, 0x100}})),
                 "control at instruction 1 \\(pc 0x10004\\): untaken call");
}

TEST(SnapshotDeath, MisalignedStartPcPanics)
{
    EXPECT_DEATH(recordScript({DynInst{0x10002, InstClass::Plain, false, 0}}),
                 "start pc 0x10002 misaligned");
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
