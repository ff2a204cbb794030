/**
 * @file
 * Hand-computed slot-accounting tests for the fetch engine.
 *
 * Each scenario lays out a tiny program whose exact timeline — issue
 * slots, stalls, fills, windows — was computed by hand using the
 * paper's arithmetic (4 slots/cycle, misfetch 8, mispredict 16, miss
 * 20 slots at the 5-cycle penalty). The engine must reproduce the
 * timeline slot for slot, per penalty component.
 */

#include <gtest/gtest.h>

#include "engine_test_support.hh"

namespace specfetch {
namespace test {
namespace {

constexpr Addr kBase = 0x10000;

// ---- Scenario A: cold sequential code ---------------------------------

TEST(EngineSequential, OracleColdMisses)
{
    ProgramScript script;
    script.plains(24);    // 3 lines
    SimResults r = runScript(script, FetchPolicy::Oracle);

    EXPECT_EQ(r.instructions, 24u);
    EXPECT_EQ(r.demandMisses, 3u);
    EXPECT_EQ(r.demandFills, 3u);
    // Each miss: 20-slot fill, bus always already free.
    EXPECT_EQ(r.penalty.slots(PenaltyKind::RtIcache), 60u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::Bus), 0u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::ForceResolve), 0u);
    EXPECT_EQ(r.penalty.totalSlots(), 60u);
    EXPECT_EQ(r.finalSlot, 24 + 60);
    EXPECT_DOUBLE_EQ(r.ispi(), 2.5);
}

TEST(EngineSequential, OptimisticAndResumeMatchOracleWithoutBranches)
{
    ProgramScript script;
    script.plains(24);
    SimResults oracle = runScript(script, FetchPolicy::Oracle);
    SimResults optimistic = runScript(script, FetchPolicy::Optimistic);
    SimResults resume = runScript(script, FetchPolicy::Resume);
    EXPECT_EQ(optimistic.finalSlot, oracle.finalSlot);
    EXPECT_EQ(resume.finalSlot, oracle.finalSlot);
}

TEST(EngineSequential, PessimisticPaysDecodeTax)
{
    ProgramScript script;
    script.plains(24);
    SimResults r = runScript(script, FetchPolicy::Pessimistic);

    // Per miss: wait until the previous instruction decodes
    // (8 slots from its issue; the gap already covers 1 of them... by
    // hand: miss at t with lastIssue = t-1 waits to t+8).
    // Timeline: miss@0 -> wait to 8, fill to 28, issues 28..35;
    // miss@36 -> wait to 44, fill to 64, issues 64..71;
    // miss@72 -> wait to 80, fill to 100, issues 100..107.
    EXPECT_EQ(r.penalty.slots(PenaltyKind::ForceResolve), 24u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::RtIcache), 60u);
    EXPECT_EQ(r.finalSlot, 108);
}

TEST(EngineSequential, DecodeMatchesPessimisticWithoutBranches)
{
    // With no branches in flight, Pessimistic's resolve wait reduces
    // to the same decode wait Decode performs.
    ProgramScript script;
    script.plains(24);
    SimResults pess = runScript(script, FetchPolicy::Pessimistic);
    SimResults dec = runScript(script, FetchPolicy::Decode);
    EXPECT_EQ(dec.finalSlot, pess.finalSlot);
    EXPECT_EQ(dec.penalty.slots(PenaltyKind::ForceResolve),
              pess.penalty.slots(PenaltyKind::ForceResolve));
}

// ---- Scenario B: correctly predicted not-taken branch -----------------

TEST(EngineBranch, CorrectNotTakenCostsNothing)
{
    ProgramScript script;
    script.plains(4);
    script.control(InstClass::CondBranch, false, kBase + 0x100);
    script.plains(3);
    SimResults r = runScript(script, FetchPolicy::Oracle);

    EXPECT_EQ(r.instructions, 8u);
    EXPECT_EQ(r.condBranches, 1u);
    EXPECT_EQ(r.dirMispredicts, 0u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::Branch), 0u);
    // Only the one cold line.
    EXPECT_EQ(r.finalSlot, 8 + 20);
}

// ---- Scenario C: direction mispredict, per policy ---------------------

/**
 * Line 0: 7 plains + branch (actually taken to line 2; the fresh PHT
 * predicts not-taken, so this is a 16-slot mispredict whose wrong
 * path is the fall-through = cold line 1). Line 2: 8 plains.
 */
ProgramScript
mispredictScript()
{
    ProgramScript script;
    script.plains(7);
    script.control(InstClass::CondBranch, true, kBase + 0x40);
    script.plains(8);
    return script;
}

TEST(EngineMispredict, Oracle)
{
    SimResults r = runScript(mispredictScript(), FetchPolicy::Oracle);
    EXPECT_EQ(r.instructions, 16u);
    EXPECT_EQ(r.dirMispredicts, 1u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::Branch), 16u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::RtIcache), 40u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::WrongIcache), 0u);
    EXPECT_EQ(r.wrongMisses, 1u);     // observed on the wrong path
    EXPECT_EQ(r.wrongFills, 0u);      // but never serviced
    EXPECT_EQ(r.finalSlot, 72);
}

TEST(EngineMispredict, OptimisticBlocksOnWrongPathFill)
{
    SimResults r = runScript(mispredictScript(), FetchPolicy::Optimistic);
    // Wrong-path miss at slot 28 fills until 48, outlasting the
    // redirect at 44 by 4 slots.
    EXPECT_EQ(r.penalty.slots(PenaltyKind::Branch), 16u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::WrongIcache), 4u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::RtIcache), 40u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::Bus), 0u);
    EXPECT_EQ(r.wrongFills, 1u);
    EXPECT_EQ(r.memoryTransactions(), 3u);
    EXPECT_EQ(r.finalSlot, 76);
}

TEST(EngineMispredict, ResumeRedirectsOnTimeButHoldsBus)
{
    SimResults r = runScript(mispredictScript(), FetchPolicy::Resume);
    // Redirect is on time (no wrong_icache), but the correct-path
    // miss right after must wait 4 slots for the wrong-path fill's
    // bus transaction.
    EXPECT_EQ(r.penalty.slots(PenaltyKind::Branch), 16u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::WrongIcache), 0u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::Bus), 4u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::RtIcache), 40u);
    EXPECT_EQ(r.wrongFills, 1u);
    EXPECT_EQ(r.finalSlot, 76);
}

TEST(EngineMispredict, PessimisticRefusesWrongPathFill)
{
    SimResults r =
        runScript(mispredictScript(), FetchPolicy::Pessimistic);
    // Timeline: fr 8 (initial decode wait), fill to 28, issues
    // 28..34, branch at 35, window [36,52), walk stops at the
    // wrong-path miss. Correct miss at 52: the branch resolved
    // exactly at 52, so no extra force_resolve. Fill to 72.
    EXPECT_EQ(r.penalty.slots(PenaltyKind::ForceResolve), 8u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::Branch), 16u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::RtIcache), 40u);
    EXPECT_EQ(r.wrongFills, 0u);
    EXPECT_EQ(r.memoryTransactions(), 2u);
    EXPECT_EQ(r.finalSlot, 80);
}

// ---- Scenario D: misfetch progression ---------------------------------

/**
 * One line holds: branch B@+0x0 (taken to +0x8), plain@+0x8, jump
 * J@+0xc back to B. Three trips around. With PC-indexed PHT (to keep
 * counters shared across trips):
 *  - B trip 1 is a 16-slot direction mispredict. Its wrong-path walk
 *    runs through J, whose speculative decode inserts J into the BTB
 *    — so J never misfetches (the paper's speculative-update win).
 *  - B trip 2 predicts taken but the BTB lacks B (it was predicted
 *    not-taken at trip 1, so decode never inserted it): 8-slot
 *    misfetch, after which decode inserts it.
 *  - Everything on trip 3 is hit/correct.
 */
TEST(EngineMisfetch, ProgressionMispredictMisfetchCorrect)
{
    ProgramScript script;
    for (int trip = 0; trip < 3; ++trip) {
        script.control(InstClass::CondBranch, true, kBase + 0x8);
        script.plains(1);
        script.control(InstClass::Jump, true, kBase);
    }

    SimConfig config = scriptConfig(script, FetchPolicy::Optimistic);
    config.predictor.phtIndexing = PhtIndexing::PcOnly;
    SimResults r = runScript(script, FetchPolicy::Optimistic, &config);

    EXPECT_EQ(r.instructions, 9u);
    EXPECT_EQ(r.dirMispredicts, 1u);    // B, first trip
    EXPECT_EQ(r.misfetches, 1u);        // B, second trip
    EXPECT_EQ(r.penalty.slots(PenaltyKind::Branch), 16u + 8u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::RtIcache), 20u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::WrongIcache), 0u);
    EXPECT_EQ(r.finalSlot, 53);
}

// ---- Scenario E: speculation-depth stall ------------------------------

TEST(EngineDepth, BranchFullAtDepthOne)
{
    ProgramScript script;
    script.plains(1);
    script.control(InstClass::CondBranch, false, kBase + 0x100);
    script.control(InstClass::CondBranch, false, kBase + 0x100);
    script.plains(1);

    SimConfig config = scriptConfig(script, FetchPolicy::Oracle);
    config.maxUnresolved = 1;
    SimResults r = runScript(script, FetchPolicy::Oracle, &config);

    // Second branch waits for the first to resolve: fetched at 22,
    // first resolves at 38 -> 16 slots of branch_full.
    EXPECT_EQ(r.penalty.slots(PenaltyKind::BranchFull), 16u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::Branch), 0u);
    EXPECT_EQ(r.finalSlot, 40);
}

TEST(EngineDepth, NoStallAtDepthTwo)
{
    ProgramScript script;
    script.plains(1);
    script.control(InstClass::CondBranch, false, kBase + 0x100);
    script.control(InstClass::CondBranch, false, kBase + 0x100);
    script.plains(1);

    SimConfig config = scriptConfig(script, FetchPolicy::Oracle);
    config.maxUnresolved = 2;
    SimResults r = runScript(script, FetchPolicy::Oracle, &config);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::BranchFull), 0u);
    EXPECT_EQ(r.finalSlot, 24);
}

// ---- Scenario F: resume-buffer reuse of a wrong-path fill -------------

/**
 * B@line0 (pred NT, actually taken to line2). Wrong path = cold
 * line1, which the aggressive policies fill. The correct path later
 * jumps into line1: Resume must satisfy it from the resume buffer
 * without a second memory request.
 */
ProgramScript
resumeReuseScript()
{
    ProgramScript script;
    script.control(InstClass::CondBranch, true, kBase + 0x40); // line2
    script.plains(1);                                          // @line2
    script.control(InstClass::Jump, true, kBase + 0x20);       // ->line1
    script.plains(8);                                          // line1
    // Stop J's misfetch-window walk inside line2: a return with no
    // predicted target ends the wrong-path fetch, keeping this
    // scenario's timeline to exactly one wrong-path fill (line1).
    script.imageOnly(kBase + 0x48, InstClass::Return);
    return script;
}

TEST(EngineResumeReuse, ResumeServesFromBuffer)
{
    SimResults r = runScript(resumeReuseScript(), FetchPolicy::Resume);
    EXPECT_EQ(r.instructions, 11u);
    EXPECT_EQ(r.demandFills, 2u);     // line0, line2 — NOT line1
    EXPECT_EQ(r.wrongFills, 1u);      // line1, from the wrong path
    EXPECT_EQ(r.bufferHits, 1u);      // line1 reused
    EXPECT_EQ(r.penalty.slots(PenaltyKind::Branch), 24u);   // 16 + 8
    EXPECT_EQ(r.penalty.slots(PenaltyKind::Bus), 11u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::RtIcache), 40u);
    EXPECT_EQ(r.finalSlot, 86);
}

TEST(EngineResumeReuse, OptimisticPrefetchedTheLine)
{
    SimResults r =
        runScript(resumeReuseScript(), FetchPolicy::Optimistic);
    // Same total as Resume here, but split as wrong_icache instead of
    // bus, and line1 is a plain cache hit after its wrong-path fill.
    EXPECT_EQ(r.penalty.slots(PenaltyKind::WrongIcache), 11u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::Bus), 0u);
    EXPECT_EQ(r.bufferHits, 0u);
    EXPECT_EQ(r.demandMisses, 2u);
    EXPECT_EQ(r.finalSlot, 86);
}

TEST(EngineResumeReuse, PessimisticPaysOnTheRightPath)
{
    SimResults r =
        runScript(resumeReuseScript(), FetchPolicy::Pessimistic);
    // line1 was never filled speculatively: it misses on the correct
    // path instead (3 demand fills, no wrong fills).
    EXPECT_EQ(r.demandFills, 3u);
    EXPECT_EQ(r.wrongFills, 0u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::ForceResolve), 8u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::RtIcache), 60u);
    EXPECT_EQ(r.penalty.slots(PenaltyKind::Branch), 24u);
    EXPECT_EQ(r.finalSlot, 103);
}

// ---- Internal consistency ---------------------------------------------

TEST(EngineInvariant, EverySlotIsIssueOrCharge)
{
    // finalSlot == instructions + total lost slots, for every policy.
    for (FetchPolicy policy : allPolicies()) {
        SimResults r = runScript(resumeReuseScript(), policy);
        EXPECT_EQ(static_cast<uint64_t>(r.finalSlot),
                  r.instructions + r.penalty.totalSlots())
            << toString(policy);
    }
}

TEST(EngineInvariant, SourceExhaustionStopsRun)
{
    ProgramScript script;
    script.plains(5);
    SimConfig config = scriptConfig(script, FetchPolicy::Oracle);
    config.instructionBudget = 1000;    // more than the script
    SimResults r = runScript(script, FetchPolicy::Oracle, &config);
    EXPECT_EQ(r.instructions, 5u);
}

TEST(EngineInvariant, WarmupResetsStats)
{
    ProgramScript script;
    script.plains(24);    // 3 cold lines
    SimConfig config = scriptConfig(script, FetchPolicy::Oracle);
    config.warmupInstructions = 8;    // absorb the first line's miss
    config.instructionBudget = 16;
    SimResults r = runScript(script, FetchPolicy::Oracle, &config);
    EXPECT_EQ(r.instructions, 16u);
    EXPECT_EQ(r.demandMisses, 2u);    // only lines 2 and 3
    EXPECT_EQ(r.penalty.slots(PenaltyKind::RtIcache), 40u);
    // The slot clock restarts at the reset like every other stat.
    EXPECT_EQ(static_cast<uint64_t>(r.finalSlot),
              r.instructions + r.penalty.totalSlots());
}

} // namespace
} // namespace test
} // namespace specfetch
