/**
 * @file
 * Batched-vs-scalar bit-exactness properties (DESIGN.md §14).
 *
 * Both sources hand the engine's run loop whole plain runs through
 * takePlainRun — a snapshot its RLE runs, the live Executor its block
 * bodies — and the engine retires them in per-line probe batches. The
 * contract is that this is *unobservable*: every counter, penalty
 * slot, epoch record, heatmap bucket and adaptive choice must be
 * bit-identical to the instruction-at-a-time path. The scalar
 * reference is the same stream recorded with max_plain_run = 1: every
 * plain is its own run record, so no batch is longer than one
 * instruction, and most plains reach fetchOne through next() (the
 * first plain after each control instruction is a one-instruction
 * batch). Scripted programs take the same reference. Warmup retires
 * through the same batched step, so the epoch, adaptive and live
 * cases run behind a warmup too.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/fetch_engine.hh"
#include "core/simulator.hh"
#include "engine_test_support.hh"
#include "obs/set_heatmap.hh"
#include "trace/snapshot.hh"
#include "workload/executor.hh"
#include "workload/registry.hh"
#include "workload/workload.hh"

namespace specfetch {
namespace {

constexpr uint64_t kBudget = 20'000;
constexpr uint64_t kSeed = 42;
/** A warmup that is a multiple of no epoch interval below, so the
 *  warmup cap lands mid-run and the epochs start off any batch
 *  boundary a zero warmup would give. */
constexpr uint64_t kWarmup = 12'345;

constexpr FetchPolicy kPolicies[] = {
    FetchPolicy::Oracle, FetchPolicy::Optimistic, FetchPolicy::Resume,
    FetchPolicy::Pessimistic, FetchPolicy::Decode,
};

/** Replay @p snap through the engine's run loop. */
SimResults
runReplay(const ProgramImage &image, const SimConfig &config,
          const TraceSnapshot &snap, RunObservations *obs = nullptr)
{
    SnapshotReplaySource source(snap);
    FetchEngine engine(config, image);
    SimResults results = engine.runWith(source);
    if (obs)
        engine.takeObservations(*obs);
    return results;
}

/** Run @p w live: the executor hands out its block bodies. */
SimResults
runLive(const Workload &w, const SimConfig &config,
        RunObservations *obs = nullptr)
{
    Executor executor(w.cfg, kSeed);
    FetchEngine engine(config, w.image);
    SimResults results = engine.runWith(executor);
    if (obs)
        engine.takeObservations(*obs);
    return results;
}

TraceSnapshot
recordSnapshot(const Workload &w, uint64_t length,
               uint32_t max_plain_run = TraceSnapshot::kMaxPlainRun)
{
    Executor recorder(w.cfg, kSeed);
    return TraceSnapshot::record(recorder, length, max_plain_run);
}

/** The scalar reference stream of @p w (see the file comment), long
 *  enough for a warmed-up run. */
TraceSnapshot
scalarSnapshot(const Workload &w)
{
    return recordSnapshot(w, kWarmup + kBudget, /*max_plain_run=*/1);
}

void
expectEpochsEqual(const std::vector<EpochRecord> &a,
                  const std::vector<EpochRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const EpochRecord &x = a[i];
        const EpochRecord &y = b[i];
        EXPECT_EQ(x.epoch, y.epoch) << "epoch " << i;
        EXPECT_EQ(x.firstInstruction, y.firstInstruction) << "epoch " << i;
        EXPECT_EQ(x.lastInstruction, y.lastInstruction) << "epoch " << i;
        EXPECT_EQ(x.slots, y.slots) << "epoch " << i;
        EXPECT_EQ(x.penalty, y.penalty) << "epoch " << i;
        for (const CounterField &field : kCounterFields) {
            EXPECT_EQ(x.*field.member, y.*field.member)
                << "epoch " << i << " " << field.key;
        }
        EXPECT_EQ(x.partial, y.partial) << "epoch " << i;
    }
}

void
expectHeatmapsEqual(const SetHeatmap *a, const SetHeatmap *b)
{
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->demandAccesses(), b->demandAccesses());
    EXPECT_EQ(a->demandMisses(), b->demandMisses());
    EXPECT_EQ(a->correctFills(), b->correctFills());
    EXPECT_EQ(a->wrongAccesses(), b->wrongAccesses());
    EXPECT_EQ(a->wrongMisses(), b->wrongMisses());
    EXPECT_EQ(a->wrongFills(), b->wrongFills());
    EXPECT_EQ(a->evictionsByCorrect(), b->evictionsByCorrect());
    EXPECT_EQ(a->evictionsByWrong(), b->evictionsByWrong());
}

void
expectAdaptiveEqual(const AdaptiveLog &a, const AdaptiveLog &b)
{
    EXPECT_EQ(a.interval, b.interval);
    EXPECT_EQ(a.basePolicy, b.basePolicy);
    EXPECT_EQ(a.switches, b.switches);
    ASSERT_EQ(a.choices.size(), b.choices.size());
    for (size_t i = 0; i < a.choices.size(); ++i) {
        EXPECT_EQ(a.choices[i].epoch, b.choices[i].epoch) << "choice " << i;
        EXPECT_EQ(a.choices[i].policy, b.choices[i].policy)
            << "choice " << i;
        EXPECT_EQ(a.choices[i].firstInstruction,
                  b.choices[i].firstInstruction)
            << "choice " << i;
        EXPECT_EQ(a.choices[i].lastInstruction, b.choices[i].lastInstruction)
            << "choice " << i;
    }
}

/**
 * The full grid the bench suite sweeps: every benchmark, every
 * policy, prefetch off and on. SimResults equality is exact over
 * every raw counter and penalty slot.
 */
TEST(BatchedScalar, AllBenchmarksAllPoliciesAllPrefetch)
{
    for (const std::string &name : benchmarkNames()) {
        const Workload &w = *sharedWorkload(name);
        TraceSnapshot snap = recordSnapshot(w, kBudget);
        TraceSnapshot single = scalarSnapshot(w);
        for (FetchPolicy policy : kPolicies) {
            for (bool prefetch : {false, true}) {
                SimConfig config;
                config.policy = policy;
                config.instructionBudget = kBudget;
                config.prefetchKind = prefetch ? PrefetchKind::NextLine
                                               : PrefetchKind::None;
                SimResults batched = runReplay(w.image, config, snap);
                SimResults scalar = runReplay(w.image, config, single);
                EXPECT_EQ(batched, scalar)
                    << name << " " << toString(policy)
                    << (prefetch ? " +prefetch" : "");
            }
        }
    }
}

/**
 * Epoch series and set heatmaps under an interval that does not
 * divide the budget (forces a partial final epoch) and falls inside
 * plain runs and cache lines alike, behind a warmup.
 */
TEST(BatchedScalar, SamplerEpochsAndHeatmapIdentical)
{
    for (const std::string &name : benchmarkNames()) {
        const Workload &w = *sharedWorkload(name);
        TraceSnapshot snap = recordSnapshot(w, kWarmup + kBudget);
        SimConfig config;
        config.policy = FetchPolicy::Resume;
        config.instructionBudget = kBudget;
        config.warmupInstructions = kWarmup;
        config.prefetchKind = PrefetchKind::NextLine;
        config.sampleInterval = 3'001;   // boundary lands mid-run/mid-line
        config.setHeatmap = true;

        RunObservations obs_b, obs_s;
        SimResults batched = runReplay(w.image, config, snap, &obs_b);
        SimResults scalar =
            runReplay(w.image, config, scalarSnapshot(w), &obs_s);
        EXPECT_EQ(batched, scalar) << name;
        expectEpochsEqual(obs_b.epochs, obs_s.epochs);
        expectHeatmapsEqual(obs_b.heatmap.get(), obs_s.heatmap.get());
    }
}

/**
 * Adaptive selection switches policy at epoch boundaries; the batch
 * cap must stop every batch exactly at the decision point (and at the
 * warmup boundary the epochs count from) so both paths see identical
 * epochs and make identical choices.
 */
TEST(BatchedScalar, AdaptiveSelectionIdentical)
{
    for (SelectorKind kind : {SelectorKind::Threshold, SelectorKind::Bandit}) {
        for (const std::string &name : {std::string("gcc"),
                                        std::string("li"),
                                        std::string("doduc")}) {
            const Workload &w = *sharedWorkload(name);
            TraceSnapshot snap = recordSnapshot(w, kWarmup + kBudget);
            SimConfig config;
            config.policy = FetchPolicy::Resume;
            config.instructionBudget = kBudget;
            config.warmupInstructions = kWarmup;
            config.adaptiveSelector = kind;
            config.adaptiveInterval = 2'500;

            RunObservations obs_b, obs_s;
            SimResults batched = runReplay(w.image, config, snap, &obs_b);
            SimResults scalar =
                runReplay(w.image, config, scalarSnapshot(w), &obs_s);
            EXPECT_EQ(batched, scalar) << name;
            expectAdaptiveEqual(obs_b.adaptive, obs_s.adaptive);
        }
    }
}

/**
 * Paranoid checking audits every checkpointInterval instructions; the
 * batch cap must present the auditor with the same mid-run state the
 * scalar path would (a violated invariant panics the run). Paranoid
 * sweeps run live, so the live run is held to the reference too.
 */
TEST(BatchedScalar, ParanoidAuditedRunsIdentical)
{
    for (const std::string &name : {std::string("gcc"),
                                    std::string("tex"),
                                    std::string("porky")}) {
        const Workload &w = *sharedWorkload(name);
        TraceSnapshot snap = recordSnapshot(w, kBudget);
        SimConfig config;
        config.policy = FetchPolicy::Pessimistic;
        config.instructionBudget = kBudget;
        config.checkLevel = CheckLevel::Paranoid;
        config.checkpointInterval = 2'000;

        SimResults batched = runReplay(w.image, config, snap);
        SimResults scalar = runReplay(w.image, config, scalarSnapshot(w));
        EXPECT_EQ(batched, scalar) << name;
        EXPECT_EQ(runLive(w, config), scalar) << name;
    }
}

/**
 * Degenerate runs: the reference's stream of length-1 batches (a
 * max_plain_run = 1 recording) must match whole runs, runs chunked
 * every 7 plains, and the live executor's block bodies.
 */
TEST(BatchedScalar, SingleInstructionRuns)
{
    const Workload &w = *sharedWorkload("gcc");
    TraceSnapshot whole = recordSnapshot(w, kBudget);
    TraceSnapshot chunked = recordSnapshot(w, kBudget, /*max_plain_run=*/7);
    SimConfig config;
    config.policy = FetchPolicy::Resume;
    config.instructionBudget = kBudget;

    SimResults scalar = runReplay(w.image, config, scalarSnapshot(w));
    EXPECT_EQ(runReplay(w.image, config, whole), scalar);
    EXPECT_EQ(runReplay(w.image, config, chunked), scalar);
    EXPECT_EQ(runLive(w, config), scalar);
}

/**
 * Live batches are block bodies, split where a fall-through block
 * hops into the next; replay batches are the RLE runs that merge
 * them. Over the full grid, behind a warmup, with the sampler, the
 * heatmap and — on a second pass — adaptive selection armed, so
 * batches are also cut at the warmup boundary and at every epoch
 * boundary, the two must agree on results, epochs, heatmaps and
 * choices.
 */
TEST(BatchedScalar, LiveMatchesReplay)
{
    for (const std::string &name : benchmarkNames()) {
        const Workload &w = *sharedWorkload(name);
        TraceSnapshot snap = recordSnapshot(w, kWarmup + kBudget);
        for (FetchPolicy policy : kPolicies) {
            for (bool prefetch : {false, true}) {
                for (SelectorKind kind :
                     {SelectorKind::Off, SelectorKind::Bandit}) {
                    SimConfig config;
                    config.policy = policy;
                    config.instructionBudget = kBudget;
                    config.warmupInstructions = kWarmup;
                    config.prefetchKind = prefetch ? PrefetchKind::NextLine
                                                   : PrefetchKind::None;
                    config.sampleInterval = 3'001;
                    config.setHeatmap = true;
                    config.adaptiveSelector = kind;
                    config.adaptiveInterval = 2'500;

                    SCOPED_TRACE(name + " " + toString(policy) +
                                 (prefetch ? " +prefetch " : " ") +
                                 toString(kind));
                    RunObservations obs_l, obs_r;
                    SimResults live = runLive(w, config, &obs_l);
                    SimResults replay =
                        runReplay(w.image, config, snap, &obs_r);
                    EXPECT_EQ(live, replay);
                    expectEpochsEqual(obs_l.epochs, obs_r.epochs);
                    expectHeatmapsEqual(obs_l.heatmap.get(),
                                        obs_r.heatmap.get());
                    expectAdaptiveEqual(obs_l.adaptive, obs_r.adaptive);
                }
            }
        }
    }
}

/**
 * A single plain run long enough to straddle line boundaries, set
 * boundaries and a full wrap of the 8K direct-mapped array (256
 * 32-byte lines), with a backward branch so later laps hit lines the
 * first lap installed. Exercises the consecutive-line stepping in
 * fetchPlainRun across every line-relative phase: the run starts
 * mid-line (3 plains past the branch target's line start).
 */
TEST(BatchedScalar, RunStraddlesLineSetAndWrapBoundaries)
{
    using test::ProgramScript;
    ProgramScript script(0x10000, 8192);
    const Addr top = script.pc();
    // 2600 plains ≈ 325 lines > the 256-line array: guaranteed wrap.
    script.plains(3);
    const Addr body = script.pc();
    script.plains(2600);
    for (int lap = 0; lap < 4; ++lap) {
        script.control(InstClass::CondBranch, true, body);
        script.plains(2600);
    }
    script.control(InstClass::Jump, true, top);

    SimConfig config;
    config.instructionBudget = script.scriptLength();
    config.sampleInterval = 777;    // epoch boundaries mid-line
    const TraceSnapshot whole = script.snapshot();
    const TraceSnapshot single = script.snapshot(/*max_plain_run=*/1);
    for (FetchPolicy policy : kPolicies) {
        config.policy = policy;
        RunObservations obs_b, obs_s;
        SimResults batched = runReplay(script.image(), config, whole, &obs_b);
        SimResults scalar = runReplay(script.image(), config, single, &obs_s);
        EXPECT_EQ(batched, scalar) << toString(policy);
        expectEpochsEqual(obs_b.epochs, obs_s.epochs);
    }
}

/**
 * Budget expiring mid-run: the engine must cut the final batch at
 * the instruction budget, not at the run record's end.
 */
TEST(BatchedScalar, BudgetCutsBatchMidRun)
{
    using test::ProgramScript;
    ProgramScript script(0x10000, 4096);
    script.plains(3000);

    SimConfig config;
    config.instructionBudget = 1'234;   // mid-run, mid-line
    const TraceSnapshot whole = script.snapshot();
    const TraceSnapshot single = script.snapshot(/*max_plain_run=*/1);
    for (FetchPolicy policy : kPolicies) {
        config.policy = policy;
        SimResults batched = runReplay(script.image(), config, whole);
        SimResults scalar = runReplay(script.image(), config, single);
        EXPECT_EQ(batched, scalar) << toString(policy);
        EXPECT_EQ(batched.instructions, config.instructionBudget);
    }
}

} // namespace
} // namespace specfetch
