/** @file Unit tests for workload/cfg_builder.hh. */

#include "workload/cfg_builder.hh"

#include <gtest/gtest.h>

#include <set>

namespace specfetch {
namespace {

WorkloadProfile
smallProfile(uint64_t seed)
{
    WorkloadProfile profile;
    profile.structureSeed = seed;
    profile.numFunctions = 12;
    profile.meanFuncBlocks = 20;
    profile.meanBlockLen = 4.0;
    return profile;
}

TEST(CfgBuilder, ProducesValidatedGraph)
{
    // build() validates internally; surviving it is the test.
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        CfgBuilder builder(smallProfile(seed));
        Cfg cfg = builder.build();
        EXPECT_EQ(cfg.functions.size(), 12u) << "seed " << seed;
        EXPECT_GT(cfg.blocks.size(), 12u * 4) << "seed " << seed;
    }
}

TEST(CfgBuilder, DeterministicForSeed)
{
    CfgBuilder a(smallProfile(7));
    CfgBuilder b(smallProfile(7));
    Cfg cfg_a = a.build();
    Cfg cfg_b = b.build();
    ASSERT_EQ(cfg_a.blocks.size(), cfg_b.blocks.size());
    for (size_t i = 0; i < cfg_a.blocks.size(); ++i) {
        EXPECT_EQ(cfg_a.blocks[i].term, cfg_b.blocks[i].term);
        EXPECT_EQ(cfg_a.blocks[i].bodyLen, cfg_b.blocks[i].bodyLen);
        EXPECT_EQ(cfg_a.blocks[i].target, cfg_b.blocks[i].target);
    }
}

TEST(CfgBuilder, DifferentSeedsDiffer)
{
    Cfg a = CfgBuilder(smallProfile(1)).build();
    Cfg b = CfgBuilder(smallProfile(2)).build();
    EXPECT_NE(a.blocks.size(), b.blocks.size());
}

TEST(CfgBuilder, MainIsLargest)
{
    // main gets doubled budget: it should be among the big functions.
    Cfg cfg = CfgBuilder(smallProfile(3)).build();
    uint32_t main_blocks = cfg.functions[0].numBlocks();
    uint32_t above_main = 0;
    for (size_t f = 1; f < cfg.functions.size(); ++f)
        above_main += cfg.functions[f].numBlocks() > main_blocks;
    EXPECT_LT(above_main, cfg.functions.size() / 2);
}

TEST(CfgBuilder, CallsRespectLayering)
{
    WorkloadProfile profile = smallProfile(5);
    profile.callLayers = 3;
    Cfg cfg = CfgBuilder(profile).build();
    // All call sites target strictly higher-indexed functions
    // (validated), and *some* calls exist.
    size_t calls = 0;
    for (const BasicBlock &block : cfg.blocks)
        calls += block.term == TermKind::Call;
    EXPECT_GT(calls, 0u);
}

TEST(CfgBuilder, LeafFunctionsDoNotCall)
{
    WorkloadProfile profile = smallProfile(5);
    profile.callLayers = 2;    // main + leaves
    Cfg cfg = CfgBuilder(profile).build();
    for (const BasicBlock &block : cfg.blocks) {
        if (block.func != 0) {
            EXPECT_NE(block.term, TermKind::Call)
                << "leaf function " << block.func << " has a call site";
        }
    }
}

TEST(CfgBuilder, BranchBehaviorsSampled)
{
    WorkloadProfile profile = smallProfile(11);
    profile.numFunctions = 30;
    profile.correlatedFraction = 0.2;
    profile.patternFraction = 0.1;
    Cfg cfg = CfgBuilder(profile).build();

    std::set<DirMode> seen;
    for (const BasicBlock &block : cfg.blocks)
        if (block.term == TermKind::CondBranch)
            seen.insert(block.behavior.mode);
    EXPECT_TRUE(seen.count(DirMode::Biased));
    EXPECT_TRUE(seen.count(DirMode::LoopBack));
    EXPECT_TRUE(seen.count(DirMode::Correlated));
    EXPECT_TRUE(seen.count(DirMode::Pattern));
}

TEST(CfgBuilder, LoopBackTargetsPrecedingBlock)
{
    Cfg cfg = CfgBuilder(smallProfile(13)).build();
    for (const BasicBlock &block : cfg.blocks) {
        if (block.term == TermKind::CondBranch &&
            block.behavior.mode == DirMode::LoopBack) {
            EXPECT_LE(block.target, block.id);
        }
    }
}

TEST(CfgBuilder, BiasesAreUShapedAndClamped)
{
    WorkloadProfile profile = smallProfile(17);
    profile.numFunctions = 40;
    Cfg cfg = CfgBuilder(profile).build();
    int lo = 0, mid = 0, hi = 0;
    for (const BasicBlock &block : cfg.blocks) {
        if (block.term != TermKind::CondBranch ||
            block.behavior.mode != DirMode::Biased)
            continue;
        double p = block.behavior.takenProb;
        ASSERT_GE(p, 0.02);
        ASSERT_LE(p, 0.98);
        if (p < 0.3)
            ++lo;
        else if (p > 0.7)
            ++hi;
        else
            ++mid;
    }
    // U-shape: extremes dominate the middle.
    EXPECT_GT(lo + hi, mid * 2);
}

TEST(CfgBuilder, IndirectJumpsHaveWeightedArms)
{
    WorkloadProfile profile = smallProfile(19);
    profile.switchWeight = 2.0;
    Cfg cfg = CfgBuilder(profile).build();
    size_t switches = 0;
    for (const BasicBlock &block : cfg.blocks) {
        if (block.term != TermKind::IndirectJump)
            continue;
        ++switches;
        const IndirectSuccessors &arms = cfg.indirectOf(block);
        ASSERT_GE(arms.targets.size(), 2u);
        ASSERT_EQ(arms.targets.size(), arms.weights.size());
        // Weights descend (first arm hottest).
        for (size_t i = 1; i < arms.weights.size(); ++i)
            EXPECT_LE(arms.weights[i], arms.weights[i - 1]);
    }
    EXPECT_GT(switches, 0u);
}

TEST(CfgBuilder, SingleFunctionProgramWorks)
{
    WorkloadProfile profile = smallProfile(23);
    profile.numFunctions = 1;
    Cfg cfg = CfgBuilder(profile).build();
    EXPECT_EQ(cfg.functions.size(), 1u);
    for (const BasicBlock &block : cfg.blocks)
        EXPECT_NE(block.term, TermKind::Call);
}

} // namespace
} // namespace specfetch
