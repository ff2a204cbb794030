/** @file Tests for profile-guided basic-block reordering. */

#include "workload/reorder.hh"

#include "workload/layout.hh"

#include <gtest/gtest.h>

#include "core/simulator.hh"
#include "workload/executor.hh"
#include "workload/registry.hh"

namespace specfetch {
namespace {

Workload
smallWorkload(uint64_t seed = 3)
{
    WorkloadProfile profile;
    profile.structureSeed = seed;
    profile.numFunctions = 10;
    profile.meanFuncBlocks = 20;
    profile.meanBlockLen = 4.0;
    return buildWorkload(profile);
}

TEST(BlockProfile, CollectsVisits)
{
    Workload w = smallWorkload();
    BlockProfile profile = profileWorkload(w, 42, 100000);
    ASSERT_EQ(profile.visits.size(), w.cfg.blocks.size());
    EXPECT_EQ(profile.instructions, 100000u);
    // The main entry block is visited at least once; total visits are
    // bounded by the instruction count.
    EXPECT_GT(profile.visits[w.cfg.functions[0].entryBlock()], 0u);
    uint64_t total = 0;
    for (uint64_t v : profile.visits)
        total += v;
    EXPECT_LE(total, 100000u);
    EXPECT_GT(total, 0u);
}

TEST(Reorder, PreservesStructure)
{
    Workload w = smallWorkload();
    BlockProfile profile = profileWorkload(w, 42, 100000);
    Cfg reordered = reorderBlocks(w.cfg, profile.visits);
    // validate() already ran inside; check conservation properties.
    EXPECT_EQ(reordered.blocks.size(), w.cfg.blocks.size());
    EXPECT_EQ(reordered.functions.size(), w.cfg.functions.size());
    EXPECT_EQ(reordered.totalInstructions(), w.cfg.totalInstructions());
    EXPECT_EQ(reordered.totalControlInstructions(),
              w.cfg.totalControlInstructions());
}

TEST(Reorder, EntryBlocksStayFirst)
{
    Workload w = smallWorkload();
    BlockProfile profile = profileWorkload(w, 42, 100000);
    Cfg reordered = reorderBlocks(w.cfg, profile.visits);
    for (size_t f = 0; f < reordered.functions.size(); ++f) {
        // The new entry must carry the same content as the old entry:
        // compare body length and terminator of the first blocks.
        const BasicBlock &old_entry =
            w.cfg.blocks[w.cfg.functions[f].entryBlock()];
        const BasicBlock &new_entry =
            reordered.blocks[reordered.functions[f].entryBlock()];
        EXPECT_EQ(new_entry.bodyLen, old_entry.bodyLen) << f;
        EXPECT_EQ(new_entry.term, old_entry.term) << f;
    }
}

TEST(Reorder, ExecutionStreamIsEquivalent)
{
    // The reordered program must execute the same *logical* sequence:
    // same classes, same taken pattern, just different addresses.
    Workload w = smallWorkload();
    Workload reordered = reorderWorkload(w, /*profile_seed=*/7,
                                         /*profile_budget=*/200000);

    Executor original(w.cfg, 42);
    Executor permuted(reordered.cfg, 42);
    DynInst a, b;
    for (int i = 0; i < 200000; ++i) {
        original.next(a);
        permuted.next(b);
        ASSERT_EQ(a.cls, b.cls) << "at " << i;
        ASSERT_EQ(a.taken, b.taken) << "at " << i;
    }
}

TEST(Reorder, HotChainsMoveForward)
{
    // After reordering, hotter blocks should sit at lower addresses
    // within their function (weighted mean position decreases or
    // stays equal).
    Workload w = buildWorkload(getProfile("li"));
    BlockProfile profile = profileWorkload(w, 42, 500000);

    auto weighted_position = [&](const Cfg &cfg,
                                 const std::vector<uint64_t> &visits) {
        // visits are per ORIGINAL id; map content by (func, bodyLen,
        // term) is ambiguous — instead measure on the cfg at hand
        // with a fresh profile.
        (void)visits;
        Executor executor(cfg, 42);
        DynInst inst;
        for (int i = 0; i < 500000; ++i)
            executor.next(inst);
        const auto &v = executor.blockVisits();
        double num = 0.0, den = 0.0;
        for (size_t b = 0; b < cfg.blocks.size(); ++b) {
            const Function &fn = cfg.functions[cfg.blocks[b].func];
            double rel = static_cast<double>(b - fn.firstBlock);
            num += rel * static_cast<double>(v[b]);
            den += static_cast<double>(v[b]);
        }
        return num / den;
    };

    Cfg reordered = reorderBlocks(w.cfg, profile.visits);
    layoutProgram(reordered);
    double before = weighted_position(w.cfg, profile.visits);
    double after = weighted_position(reordered, profile.visits);
    EXPECT_LT(after, before);
}

TEST(Reorder, ImprovesOrMaintainsMissRate)
{
    // The point of the exercise (paper §6): hot-packing the layout
    // should reduce misses where cold arms dilute the hot footprint.
    // The generator already emits blocks in near-execution order, so
    // gains are modest: require a real improvement on li (whose cold
    // arms are dilutive) and no significant regression on gcc.
    SimConfig config;
    config.policy = FetchPolicy::Resume;
    config.instructionBudget = 400000;

    Workload li = buildWorkload(getProfile("li"));
    Workload li_opt = reorderWorkload(li, 7, 1'000'000);
    SimResults li_before = runSimulation(li, config);
    SimResults li_after = runSimulation(li_opt, config);
    EXPECT_LT(li_after.missRatePercent(), li_before.missRatePercent());
    EXPECT_LT(li_after.ispi(), li_before.ispi());

    Workload gcc = buildWorkload(getProfile("gcc"));
    Workload gcc_opt = reorderWorkload(gcc, 7, 1'000'000);
    SimResults gcc_before = runSimulation(gcc, config);
    SimResults gcc_after = runSimulation(gcc_opt, config);
    EXPECT_LT(gcc_after.ispi(), gcc_before.ispi() * 1.02);
}

TEST(Reorder, DeterministicGivenProfile)
{
    Workload w = smallWorkload();
    BlockProfile profile = profileWorkload(w, 42, 100000);
    Cfg a = reorderBlocks(w.cfg, profile.visits);
    Cfg b = reorderBlocks(w.cfg, profile.visits);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (size_t i = 0; i < a.blocks.size(); ++i) {
        EXPECT_EQ(a.blocks[i].bodyLen, b.blocks[i].bodyLen);
        EXPECT_EQ(a.blocks[i].term, b.blocks[i].term);
    }
}

TEST(Reorder, PreservesIndirectCallSemantics)
{
    // Regression: indirect-call targets are *function* indices and
    // must not be remapped through the block-id map (that once either
    // panicked in validate() or silently redirected dispatch sites to
    // arbitrary functions). groff's profile contains dispatch sites.
    Workload w = buildWorkload(getProfile("groff"));
    bool has_icall = false;
    for (const BasicBlock &block : w.cfg.blocks)
        has_icall |= block.term == TermKind::IndirectCall;
    ASSERT_TRUE(has_icall);

    Workload reordered = reorderWorkload(w, 7, 300000);
    Executor original(w.cfg, 42);
    Executor permuted(reordered.cfg, 42);
    DynInst a, b;
    for (int i = 0; i < 200000; ++i) {
        original.next(a);
        permuted.next(b);
        ASSERT_EQ(a.cls, b.cls) << i;
        ASSERT_EQ(a.taken, b.taken) << i;
    }
}

TEST(ReorderDeath, ProfileSizeMismatchPanics)
{
    Workload w = smallWorkload();
    std::vector<uint64_t> wrong(3, 0);
    EXPECT_DEATH(reorderBlocks(w.cfg, wrong), "profile covers");
}

} // namespace
} // namespace specfetch
