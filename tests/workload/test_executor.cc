/** @file Unit tests for workload/executor.hh. */

#include "workload/executor.hh"

#include <gtest/gtest.h>

#include "util/random.hh"
#include "workload/cfg_builder.hh"
#include "workload/layout.hh"
#include "workload/registry.hh"
#include "workload/workload.hh"

namespace specfetch {
namespace {

Workload
smallWorkload(uint64_t seed = 3)
{
    WorkloadProfile profile;
    profile.structureSeed = seed;
    profile.numFunctions = 10;
    profile.meanFuncBlocks = 16;
    profile.meanBlockLen = 4.0;
    return buildWorkload(profile);
}

TEST(Executor, PathIsContiguous)
{
    Workload w = smallWorkload();
    Executor executor(w.cfg, 42);
    DynInst inst;
    ASSERT_TRUE(executor.next(inst));
    Addr expected = inst.nextPc();
    for (int i = 0; i < 100000; ++i) {
        ASSERT_TRUE(executor.next(inst));
        ASSERT_EQ(inst.pc, expected) << "at step " << i;
        expected = inst.nextPc();
    }
}

TEST(Executor, EveryPcInsideImage)
{
    Workload w = smallWorkload();
    Executor executor(w.cfg, 42);
    DynInst inst;
    for (int i = 0; i < 50000; ++i) {
        executor.next(inst);
        ASSERT_TRUE(w.image.contains(inst.pc));
    }
}

TEST(Executor, DynamicMatchesStaticClasses)
{
    Workload w = smallWorkload();
    Executor executor(w.cfg, 42);
    DynInst inst;
    for (int i = 0; i < 50000; ++i) {
        executor.next(inst);
        StaticInst expected = w.image.at(inst.pc);
        ASSERT_EQ(inst.cls, expected.cls) << "at pc " << std::hex
                                          << inst.pc;
        // Direct control must report the static target.
        if (hasStaticTarget(inst.cls)) {
            ASSERT_EQ(inst.target, expected.target);
        }
    }
}

TEST(Executor, DeterministicForSeed)
{
    Workload w = smallWorkload();
    Executor a(w.cfg, 99);
    Executor b(w.cfg, 99);
    DynInst inst_a, inst_b;
    for (int i = 0; i < 20000; ++i) {
        a.next(inst_a);
        b.next(inst_b);
        ASSERT_EQ(inst_a.pc, inst_b.pc);
        ASSERT_EQ(inst_a.taken, inst_b.taken);
        ASSERT_EQ(inst_a.target, inst_b.target);
    }
}

/**
 * takePlainRun() is next() in bulk. Per profile, random caps
 * interleaved with single steps yield the stream next() alone
 * yields, the same block entry counts and the same dynamic mix; a 0
 * from takePlainRun() always means a block's terminator is next.
 */
TEST(ExecutorTest, TakePlainRunMatchesNext)
{
    constexpr uint64_t kLength = 100'000;
    for (const std::string &name : benchmarkNames()) {
        SCOPED_TRACE(name);
        const Workload &w = *sharedWorkload(name);
        Executor stepped(w.cfg, 42);
        Executor bulk(w.cfg, 42);
        Rng rng(7);
        DynInst want, got;
        uint64_t at = 0;
        uint64_t runs = 0;
        while (at < kLength) {
            Addr pc = 0;
            uint32_t cap = static_cast<uint32_t>(1 + rng.nextBelow(12));
            bool asked = rng.nextBool(0.75);
            uint32_t n = asked ? bulk.takePlainRun(pc, cap) : 0;
            ASSERT_LE(n, cap);
            for (uint32_t i = 0; i < n; ++i) {
                ASSERT_TRUE(stepped.next(want));
                ASSERT_EQ(want.cls, InstClass::Plain) << "at " << at + i;
                ASSERT_EQ(want.pc, pc + Addr(i) * kInstBytes)
                    << "at " << at + i;
            }
            if (n > 0) {
                at += n;
                ++runs;
                continue;
            }
            ASSERT_TRUE(bulk.next(got));
            ASSERT_TRUE(stepped.next(want));
            ASSERT_EQ(got.pc, want.pc) << "at " << at;
            ASSERT_EQ(got.cls, want.cls) << "at " << at;
            ASSERT_EQ(got.taken, want.taken) << "at " << at;
            ASSERT_EQ(got.target, want.target) << "at " << at;
            if (asked) {
                ASSERT_NE(got.cls, InstClass::Plain) << "at " << at;
            }
            ++at;
        }
        EXPECT_GT(runs, 0u);

        EXPECT_EQ(bulk.blockVisits(), stepped.blockVisits());
        EXPECT_EQ(bulk.instructions.value(), stepped.instructions.value());
        EXPECT_EQ(bulk.controlInsts.value(), stepped.controlInsts.value());
        EXPECT_EQ(bulk.condBranches.value(), stepped.condBranches.value());
        EXPECT_EQ(bulk.condTaken.value(), stepped.condTaken.value());
        EXPECT_EQ(bulk.calls.value(), stepped.calls.value());
        EXPECT_EQ(bulk.returns.value(), stepped.returns.value());
        EXPECT_EQ(bulk.indirectJumps.value(),
                  stepped.indirectJumps.value());
        EXPECT_EQ(bulk.indirectCalls.value(),
                  stepped.indirectCalls.value());
    }
}

TEST(Executor, SeedsChangeDynamicBehavior)
{
    Workload w = smallWorkload();
    Executor a(w.cfg, 1);
    Executor b(w.cfg, 2);
    DynInst inst_a, inst_b;
    int diverged = 0;
    for (int i = 0; i < 20000; ++i) {
        a.next(inst_a);
        b.next(inst_b);
        diverged += inst_a.pc != inst_b.pc;
    }
    EXPECT_GT(diverged, 0);
}

TEST(Executor, CountsAreConsistent)
{
    Workload w = smallWorkload();
    Executor executor(w.cfg, 42);
    DynInst inst;
    uint64_t control = 0;
    uint64_t cond = 0;
    const uint64_t n = 50000;
    for (uint64_t i = 0; i < n; ++i) {
        executor.next(inst);
        control += isControl(inst.cls);
        cond += inst.cls == InstClass::CondBranch;
    }
    EXPECT_EQ(executor.instructions.value(), n);
    EXPECT_EQ(executor.controlInsts.value(), control);
    EXPECT_EQ(executor.condBranches.value(), cond);
    EXPECT_GT(executor.branchFraction(), 0.0);
    EXPECT_LT(executor.branchFraction(), 1.0);
}

TEST(Executor, CallsAndReturnsBalance)
{
    Workload w = smallWorkload();
    Executor executor(w.cfg, 42);
    DynInst inst;
    int64_t depth = 0;
    int64_t max_depth = 0;
    for (int i = 0; i < 200000; ++i) {
        executor.next(inst);
        if (inst.cls == InstClass::Call)
            ++depth;
        if (inst.cls == InstClass::Return)
            --depth;
        ASSERT_GE(depth, 0) << "return without call";
        max_depth = std::max(max_depth, depth);
    }
    // The layered call pyramid bounds the depth.
    EXPECT_LE(max_depth,
              static_cast<int64_t>(w.cfg.functions.size()));
    EXPECT_GT(max_depth, 0);
}

TEST(Executor, ReturnsGoToCallContinuation)
{
    Workload w = smallWorkload();
    Executor executor(w.cfg, 42);
    DynInst inst;
    std::vector<Addr> stack;
    for (int i = 0; i < 200000; ++i) {
        executor.next(inst);
        if (inst.cls == InstClass::Call)
            stack.push_back(inst.pc + kInstBytes);
        if (inst.cls == InstClass::Return) {
            ASSERT_FALSE(stack.empty());
            ASSERT_EQ(inst.target, stack.back());
            stack.pop_back();
        }
    }
}

TEST(Executor, LoopTripCountsRoughlyMatchBehavior)
{
    // Build a tiny hand-made loop: block0 body, loop-back branch with
    // tripCount 5 and no jitter; block1 jumps back to block0.
    Cfg cfg;
    BasicBlock body;
    body.id = 0;
    body.func = 0;
    body.bodyLen = 1;
    body.term = TermKind::CondBranch;
    body.target = 0;
    body.behavior.mode = DirMode::LoopBack;
    body.behavior.tripCount = 5;
    body.behavior.tripJitter = 0.0;
    cfg.blocks.push_back(body);

    BasicBlock tail;
    tail.id = 1;
    tail.func = 0;
    tail.bodyLen = 1;
    tail.term = TermKind::Jump;
    tail.target = 0;
    cfg.blocks.push_back(tail);

    Function main;
    main.index = 0;
    main.firstBlock = 0;
    main.lastBlock = 1;
    cfg.functions.push_back(main);
    cfg.validate();
    layoutProgram(cfg);

    Executor executor(cfg, 7);
    DynInst inst;
    // One loop activation: body executes 5 times (10 instructions),
    // then the tail. Count taken branches in the first activation.
    int taken = 0;
    for (int i = 0; i < 10; ++i) {
        executor.next(inst);
        if (inst.cls == InstClass::CondBranch && inst.taken)
            ++taken;
    }
    EXPECT_EQ(taken, 4);    // 5 iterations = 4 back edges
}

TEST(Executor, PatternBranchFollowsPattern)
{
    Cfg cfg;
    BasicBlock body;
    body.id = 0;
    body.func = 0;
    body.bodyLen = 1;
    body.term = TermKind::CondBranch;
    body.target = 1;    // forward skip
    body.behavior.mode = DirMode::Pattern;
    body.behavior.patternLen = 3;
    body.behavior.patternBits = 0b011;
    cfg.blocks.push_back(body);

    BasicBlock tail;
    tail.id = 1;
    tail.func = 0;
    tail.bodyLen = 1;
    tail.term = TermKind::Jump;
    tail.target = 0;
    cfg.blocks.push_back(tail);

    Function main{0, 0, 1, "main"};
    cfg.functions.push_back(main);
    cfg.validate();
    layoutProgram(cfg);

    Executor executor(cfg, 7);
    DynInst inst;
    std::vector<bool> outcomes;
    while (outcomes.size() < 9) {
        executor.next(inst);
        if (inst.cls == InstClass::CondBranch)
            outcomes.push_back(inst.taken);
    }
    std::vector<bool> expected{true, true, false,
                               true, true, false,
                               true, true, false};
    EXPECT_EQ(outcomes, expected);
}

} // namespace
} // namespace specfetch
