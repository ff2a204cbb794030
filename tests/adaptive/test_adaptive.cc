/**
 * @file
 * Unit tests for the adaptive policy-selection subsystem (DESIGN.md
 * §12): selector kind parsing, the three selector implementations,
 * the engine's epoch-aligned decision point and its choice log, the
 * per-interval Oracle bound with its regret math, the `adaptive`
 * record schema, the conditional run-manifest members, and the
 * adaptive-epoch-tiling invariant.
 */

#include <gtest/gtest.h>

#include <set>

#include "adaptive/adaptive_record.hh"
#include "adaptive/oracle.hh"
#include "adaptive/selector.hh"
#include "check/invariant.hh"
#include "core/simulator.hh"
#include "report/record.hh"
#include "workload/registry.hh"
#include "workload/workload.hh"

using namespace specfetch;

namespace {

/** Synthetic closed epoch with the given selector signals. */
EpochRecord
epochWith(double miss_rate_percent, double branch_density,
          uint64_t instructions = 10'000)
{
    EpochRecord epoch;
    epoch.firstInstruction = 0;
    epoch.lastInstruction = instructions;
    epoch.demandMisses = static_cast<uint64_t>(
        miss_rate_percent / 100.0 * static_cast<double>(instructions));
    epoch.controlInsts = static_cast<uint64_t>(
        branch_density * static_cast<double>(instructions));
    return epoch;
}

/** Synthetic epoch with only a total penalty (oracle-bound tests). */
EpochRecord
penaltyEpoch(uint64_t index, uint64_t penalty_slots,
             uint64_t instructions = 100)
{
    EpochRecord epoch;
    epoch.epoch = index;
    epoch.firstInstruction = index * instructions;
    epoch.lastInstruction = (index + 1) * instructions;
    epoch.penalty.charge(PenaltyKind::BranchFull, penalty_slots);
    return epoch;
}

const JsonValue &
member(const JsonValue &object, const std::string &key)
{
    const JsonValue *value = object.find(key);
    EXPECT_NE(value, nullptr) << "missing member: " << key;
    static JsonValue fallback;
    return value ? *value : fallback;
}

/** Adaptive run on a real workload; returns (results, observations). */
SimResults
runAdaptive(const std::string &benchmark, SelectorKind kind,
            uint64_t budget, uint64_t interval, RunObservations &obs)
{
    SimConfig config;
    config.instructionBudget = budget;
    config.adaptiveSelector = kind;
    config.adaptiveInterval = interval;
    return runSimulation(*sharedWorkload(benchmark), config, obs);
}

} // namespace

TEST(SelectorKind, ParseAcceptsEveryKindCaseInsensitively)
{
    SelectorKind kind = SelectorKind::Off;
    EXPECT_TRUE(parseSelectorKind("static", kind));
    EXPECT_EQ(kind, SelectorKind::Static);
    EXPECT_TRUE(parseSelectorKind("Threshold", kind));
    EXPECT_EQ(kind, SelectorKind::Threshold);
    EXPECT_TRUE(parseSelectorKind("BANDIT", kind));
    EXPECT_EQ(kind, SelectorKind::Bandit);
    EXPECT_TRUE(parseSelectorKind("off", kind));
    EXPECT_EQ(kind, SelectorKind::Off);
    EXPECT_TRUE(parseSelectorKind("none", kind));
    EXPECT_EQ(kind, SelectorKind::Off);
    EXPECT_FALSE(parseSelectorKind("greedy", kind));
}

TEST(SelectorKind, ToStringRoundTripsThroughParse)
{
    for (SelectorKind kind :
         {SelectorKind::Off, SelectorKind::Static, SelectorKind::Threshold,
          SelectorKind::Bandit}) {
        SelectorKind parsed = SelectorKind::Static;
        ASSERT_TRUE(parseSelectorKind(toString(kind), parsed))
            << toString(kind);
        EXPECT_EQ(parsed, kind);
    }
}

TEST(StaticSelector, AlwaysReSelectsTheBasePolicy)
{
    StaticSelector selector(FetchPolicy::Pessimistic);
    EXPECT_EQ(selector.name(), "static");
    for (double rate : {0.0, 1.0, 50.0}) {
        EXPECT_EQ(selector.nextPolicy(epochWith(rate, 0.3),
                                      FetchPolicy::Oracle),
                  FetchPolicy::Pessimistic);
    }
}

TEST(ThresholdSelector, DefaultTableBandsOnMissRateAndDensity)
{
    ThresholdSelector selector;
    double sparse = 0.05, dense = 0.30;   // split is 0.10

    // Low and middle bands: Resume is the consistent static winner.
    EXPECT_EQ(selector.nextPolicy(epochWith(0.1, sparse),
                                  FetchPolicy::Resume),
              FetchPolicy::Resume);
    EXPECT_EQ(selector.nextPolicy(epochWith(0.1, dense),
                                  FetchPolicy::Resume),
              FetchPolicy::Resume);
    EXPECT_EQ(selector.nextPolicy(epochWith(3.0, sparse),
                                  FetchPolicy::Resume),
              FetchPolicy::Resume);

    // Miss-heavy band: only sparse-branch regions step up to the
    // Oracle bound one band early.
    EXPECT_EQ(selector.nextPolicy(epochWith(6.0, sparse),
                                  FetchPolicy::Resume),
              FetchPolicy::Oracle);
    EXPECT_EQ(selector.nextPolicy(epochWith(6.0, dense),
                                  FetchPolicy::Resume),
              FetchPolicy::Resume);

    // Catch-all row: the last rule's bound is ignored.
    EXPECT_EQ(selector.nextPolicy(epochWith(10.0, sparse),
                                  FetchPolicy::Resume),
              FetchPolicy::Oracle);
    EXPECT_EQ(selector.nextPolicy(epochWith(10.0, dense),
                                  FetchPolicy::Resume),
              FetchPolicy::Oracle);
}

TEST(ThresholdSelector, CustomTableAndAccessors)
{
    std::vector<ThresholdRule> table{
        {1.0, FetchPolicy::Decode, FetchPolicy::Pessimistic},
        {0.0, FetchPolicy::Resume, FetchPolicy::Oracle},
    };
    ThresholdSelector selector(table, 0.5);
    EXPECT_EQ(selector.table().size(), 2u);
    EXPECT_EQ(selector.densitySplit(), 0.5);
    EXPECT_EQ(selector.nextPolicy(epochWith(0.5, 0.1),
                                  FetchPolicy::Resume),
              FetchPolicy::Decode);
    EXPECT_EQ(selector.nextPolicy(epochWith(0.5, 0.6),
                                  FetchPolicy::Resume),
              FetchPolicy::Pessimistic);
    EXPECT_EQ(selector.nextPolicy(epochWith(5.0, 0.1),
                                  FetchPolicy::Resume),
              FetchPolicy::Resume);
}

TEST(ThresholdSelectorDeathTest, EmptyTablePanics)
{
    EXPECT_DEATH(ThresholdSelector({}, 0.2), "at least one rule");
}

TEST(Bandit, GreedySticksWithTheIncumbentUntilEvidence)
{
    // No forced warm start: with epsilon 0 the only observed arm is
    // the incumbent, unobserved arms are never picked greedily, so
    // the bandit is indistinguishable from the static run.
    EpsilonGreedyBandit bandit(1, 0.0);
    FetchPolicy current = FetchPolicy::Resume;
    for (int i = 0; i < 30; ++i) {
        current = bandit.nextPolicy(epochWith(0.5 + 0.3 * i, 0.2),
                                    current);
        ASSERT_EQ(current, FetchPolicy::Resume) << "decision " << i;
    }
    EXPECT_EQ(bandit.pulls(FetchPolicy::Resume), 30u);
    EXPECT_EQ(bandit.pulls(FetchPolicy::Oracle), 0u);
}

TEST(Bandit, ContextBucketsFollowTheMissRateEdges)
{
    // Default edges {1.0, 4.0} give three miss-rate buckets.
    EpsilonGreedyBandit bandit(1);
    EXPECT_EQ(bandit.contextOf(0.0), 0u);
    EXPECT_EQ(bandit.contextOf(0.99), 0u);
    EXPECT_EQ(bandit.contextOf(1.0), 1u);
    EXPECT_EQ(bandit.contextOf(3.9), 1u);
    EXPECT_EQ(bandit.contextOf(4.0), 2u);
    EXPECT_EQ(bandit.contextOf(50.0), 2u);

    EpsilonGreedyBandit custom(1, 0.1, {}, 0.5, {2.5});
    EXPECT_EQ(custom.contextOf(2.4), 0u);
    EXPECT_EQ(custom.contextOf(2.5), 1u);
}

TEST(Bandit, ExplorationReachesUnseenArms)
{
    // epsilon 1: every decision is a uniform draw over the arms, so
    // a short run visits more than the incumbent.
    EpsilonGreedyBandit bandit(3, 1.0);
    FetchPolicy current = FetchPolicy::Resume;
    std::set<FetchPolicy> visited;
    for (int i = 0; i < 40; ++i) {
        current = bandit.nextPolicy(epochWith(1.0, 0.2), current);
        visited.insert(current);
    }
    EXPECT_GE(visited.size(), 3u);
    uint64_t total = 0;
    for (FetchPolicy arm : allPolicies())
        total += bandit.pulls(arm);
    EXPECT_EQ(total, 40u);
}

TEST(Bandit, SameSeedMakesIdenticalChoices)
{
    EpsilonGreedyBandit a(7, 0.3), b(7, 0.3);
    FetchPolicy cur_a = FetchPolicy::Resume, cur_b = FetchPolicy::Resume;
    for (int i = 0; i < 40; ++i) {
        EpochRecord closed = epochWith(0.5 + 0.1 * (i % 7), 0.25);
        cur_a = a.nextPolicy(closed, cur_a);
        cur_b = b.nextPolicy(closed, cur_b);
        ASSERT_EQ(cur_a, cur_b) << "diverged at decision " << i;
    }
}

TEST(Bandit, ResetRestoresTheInitialState)
{
    EpsilonGreedyBandit bandit(11, 0.5);
    auto play = [&] {
        FetchPolicy current = FetchPolicy::Resume;
        std::vector<FetchPolicy> chosen;
        for (int i = 0; i < 20; ++i) {
            current = bandit.nextPolicy(epochWith(1.0 + i * 0.2, 0.25),
                                        current);
            chosen.push_back(current);
        }
        return chosen;
    };
    std::vector<FetchPolicy> first = play();
    bandit.reset();
    EXPECT_EQ(play(), first);
}

TEST(Bandit, SwitchesOnlyOnStrictlyBetterObservedValue)
{
    // epsilon 0 isolates the greedy rule; the caller reports which
    // arm governed each closed epoch (as the engine does after an
    // exploration step), all epochs in the same miss-rate bucket.
    EpsilonGreedyBandit bandit(1, 0.0, {FetchPolicy::Oracle,
                                        FetchPolicy::Resume});
    auto epoch = [](uint64_t penalty_slots) {
        EpochRecord closed = epochWith(2.0, 0.2);
        closed.penalty.charge(PenaltyKind::BranchFull, penalty_slots);
        return closed;
    };

    // Resume's first epoch is expensive; Oracle's (seen via a
    // supposed exploration pull) is cheap — greedy moves to Oracle.
    EXPECT_EQ(bandit.nextPolicy(epoch(5'000), FetchPolicy::Resume),
              FetchPolicy::Resume);
    EXPECT_EQ(bandit.nextPolicy(epoch(100), FetchPolicy::Oracle),
              FetchPolicy::Oracle);
    // And a later bad Resume epoch does not shake the choice.
    EXPECT_EQ(bandit.nextPolicy(epoch(5'000), FetchPolicy::Resume),
              FetchPolicy::Oracle);
    EXPECT_EQ(bandit.pulls(FetchPolicy::Resume), 2u);
    EXPECT_EQ(bandit.pulls(FetchPolicy::Oracle), 1u);
}

TEST(Bandit, TiesKeepTheIncumbent)
{
    // Identical rewards for both arms: switching needs strict
    // evidence, so the incumbent wins the tie (hysteresis).
    EpsilonGreedyBandit bandit(1, 0.0, {FetchPolicy::Oracle,
                                        FetchPolicy::Resume});
    auto epoch = [] {
        EpochRecord closed = epochWith(2.0, 0.2);
        closed.penalty.charge(PenaltyKind::BranchFull, 300);
        return closed;
    };
    EXPECT_EQ(bandit.nextPolicy(epoch(), FetchPolicy::Resume),
              FetchPolicy::Resume);
    EXPECT_EQ(bandit.nextPolicy(epoch(), FetchPolicy::Oracle),
              FetchPolicy::Oracle);
    EXPECT_EQ(bandit.nextPolicy(epoch(), FetchPolicy::Resume),
              FetchPolicy::Resume);
}

TEST(Bandit, RecencyWeightingForgetsAColdStart)
{
    // alpha 1 keeps only the last reward: a terrible first Resume
    // epoch (cold caches) is fully forgotten once a later epoch is
    // cheap, so greedy returns to Resume over a mediocre Oracle.
    EpsilonGreedyBandit bandit(1, 0.0,
                               {FetchPolicy::Oracle, FetchPolicy::Resume},
                               1.0);
    auto epoch = [](uint64_t penalty_slots) {
        EpochRecord closed = epochWith(2.0, 0.2);
        closed.penalty.charge(PenaltyKind::BranchFull, penalty_slots);
        return closed;
    };
    EXPECT_EQ(bandit.nextPolicy(epoch(9'000), FetchPolicy::Resume),
              FetchPolicy::Resume);
    EXPECT_EQ(bandit.nextPolicy(epoch(500), FetchPolicy::Oracle),
              FetchPolicy::Oracle);
    // Resume's fresh epoch is now the cheapest observation.
    EXPECT_EQ(bandit.nextPolicy(epoch(100), FetchPolicy::Resume),
              FetchPolicy::Resume);
    EXPECT_EQ(bandit.nextPolicy(epoch(500), FetchPolicy::Resume),
              FetchPolicy::Resume);
}

TEST(BanditDeathTest, ConstructorRejectsBadKnobs)
{
    EXPECT_DEATH(EpsilonGreedyBandit(1, 1.5), "epsilon");
    EXPECT_DEATH(EpsilonGreedyBandit(1, 0.1, {}, 0.0), "step size");
    EXPECT_DEATH(EpsilonGreedyBandit(1, 0.1, {}, 0.5, {4.0, 1.0}),
                 "ascending");
}

TEST(MakeSelector, BuildsTheConfiguredKind)
{
    SimConfig config;
    config.policy = FetchPolicy::Pessimistic;
    config.adaptiveSelector = SelectorKind::Static;
    EXPECT_EQ(makeSelector(config)->name(), "static");
    config.adaptiveSelector = SelectorKind::Threshold;
    EXPECT_EQ(makeSelector(config)->name(), "threshold");
    config.adaptiveSelector = SelectorKind::Bandit;
    EXPECT_EQ(makeSelector(config)->name(), "bandit");
}

TEST(MakeSelectorDeathTest, OffPanics)
{
    SimConfig config;
    EXPECT_DEATH(makeSelector(config), "off");
}

TEST(AdaptiveConfig, DescribeNamesTheArmedSelector)
{
    SimConfig config;
    EXPECT_EQ(config.describe().find("adaptive"), std::string::npos);
    config.adaptiveSelector = SelectorKind::Bandit;
    config.adaptiveInterval = 25'000;
    EXPECT_NE(config.describe().find("adaptive bandit"),
              std::string::npos);
    EXPECT_NE(config.describe().find("25000"), std::string::npos);
}

TEST(AdaptiveConfigDeathTest, ValidateRejectsBadKnobs)
{
    SimConfig config;
    config.adaptiveSelector = SelectorKind::Threshold;
    config.adaptiveInterval = 0;
    EXPECT_DEATH(config.validate(), "adaptive");
    config.adaptiveInterval = 10'000;
    config.adaptiveEpsilon = -0.5;
    EXPECT_DEATH(config.validate(), "epsilon");
}

TEST(RunManifest, AdaptiveMembersAreConditional)
{
    SimResults results;
    results.workload = "li";
    SimConfig config;

    // Off: byte-for-byte the pre-adaptive manifest (golden stability).
    JsonValue off = makeRunRecord(results, config);
    EXPECT_EQ(member(off, "config").find("adaptive_selector"), nullptr);
    EXPECT_EQ(member(off, "config").find("adaptive_seed"), nullptr);

    config.adaptiveSelector = SelectorKind::Threshold;
    config.adaptiveInterval = 20'000;
    JsonValue threshold = makeRunRecord(results, config);
    EXPECT_EQ(member(member(threshold, "config"), "adaptive_selector")
                  .asString(),
              "threshold");
    EXPECT_EQ(member(member(threshold, "config"), "adaptive_interval")
                  .asUint(),
              20'000u);
    // Seed/epsilon matter only to the bandit.
    EXPECT_EQ(member(threshold, "config").find("adaptive_seed"), nullptr);

    config.adaptiveSelector = SelectorKind::Bandit;
    JsonValue bandit = makeRunRecord(results, config);
    EXPECT_NE(member(bandit, "config").find("adaptive_seed"), nullptr);
    EXPECT_NE(member(bandit, "config").find("adaptive_epsilon"), nullptr);
}

TEST(Engine, StaticSelectorIsBitExactWithTheStaticRun)
{
    for (FetchPolicy policy :
         {FetchPolicy::Optimistic, FetchPolicy::Resume}) {
        SimConfig config;
        config.policy = policy;
        config.instructionBudget = 60'000;
        SimResults plain = runSimulation(*sharedWorkload("li"), config);

        config.adaptiveSelector = SelectorKind::Static;
        config.adaptiveInterval = 10'000;
        RunObservations obs;
        SimResults adaptive =
            runSimulation(*sharedWorkload("li"), config, obs);

        EXPECT_TRUE(plain == adaptive) << toString(policy);
        EXPECT_EQ(obs.adaptive.choices.size(), 6u);
        EXPECT_EQ(obs.adaptive.switches, 0u);
        for (const AdaptiveChoice &choice : obs.adaptive.choices)
            EXPECT_EQ(choice.policy, policy);
    }
}

TEST(Engine, ChoiceLogTilesTheRunExactly)
{
    RunObservations obs;
    SimResults results = runAdaptive("li", SelectorKind::Threshold,
                                     120'000, 50'000, obs);
    const AdaptiveLog &log = obs.adaptive;
    ASSERT_TRUE(log.enabled());
    ASSERT_EQ(log.choices.size(), 3u);
    EXPECT_EQ(log.interval, 50'000u);
    EXPECT_EQ(log.basePolicy, FetchPolicy::Resume);
    uint64_t expected_first = 0;
    for (size_t i = 0; i < log.choices.size(); ++i) {
        EXPECT_EQ(log.choices[i].epoch, i);
        EXPECT_EQ(log.choices[i].firstInstruction, expected_first);
        expected_first = log.choices[i].lastInstruction;
    }
    EXPECT_EQ(expected_first, results.instructions);
    EXPECT_EQ(log.choices.back().lastInstruction, 120'000u);
}

TEST(Engine, BudgetMultipleOfIntervalLogsNoPhantomEpoch)
{
    RunObservations obs;
    SimResults results = runAdaptive("li", SelectorKind::Threshold,
                                     100'000, 50'000, obs);
    EXPECT_EQ(results.instructions, 100'000u);
    ASSERT_EQ(obs.adaptive.choices.size(), 2u);
    EXPECT_EQ(obs.adaptive.choices.back().lastInstruction, 100'000u);
}

TEST(Engine, BanditRunIsDeterministicAcrossInvocations)
{
    RunObservations obs_a, obs_b;
    SimResults a = runAdaptive("gcc", SelectorKind::Bandit, 150'000,
                               10'000, obs_a);
    SimResults b = runAdaptive("gcc", SelectorKind::Bandit, 150'000,
                               10'000, obs_b);
    EXPECT_TRUE(a == b);
    ASSERT_EQ(obs_a.adaptive.choices.size(),
              obs_b.adaptive.choices.size());
    for (size_t i = 0; i < obs_a.adaptive.choices.size(); ++i) {
        EXPECT_EQ(obs_a.adaptive.choices[i].policy,
                  obs_b.adaptive.choices[i].policy);
    }
    EXPECT_EQ(obs_a.adaptive.switches, obs_b.adaptive.switches);
}

TEST(Engine, AdaptiveRunPassesTheCheapAudit)
{
    // The engine's own end-of-run audit (incl. adaptive-epoch-tiling)
    // panics on violation, so surviving the run is the assertion.
    SimConfig config;
    config.instructionBudget = 120'000;
    config.adaptiveSelector = SelectorKind::Bandit;
    config.adaptiveInterval = 10'000;
    config.checkLevel = CheckLevel::Cheap;
    SimResults results = runSimulation(*sharedWorkload("li"), config);
    EXPECT_EQ(results.instructions, 120'000u);
}

TEST(Oracle, BuildTakesThePerEpochMinimum)
{
    std::vector<FetchPolicy> policies{FetchPolicy::Oracle,
                                      FetchPolicy::Resume};
    std::vector<std::vector<EpochRecord>> epochs{
        {penaltyEpoch(0, 100), penaltyEpoch(1, 200)},
        {penaltyEpoch(0, 150), penaltyEpoch(1, 50)},
    };
    PerIntervalOracle oracle = buildPerIntervalOracle(
        policies, epochs, {1.5, 1.0}, 100);

    EXPECT_EQ(oracle.instructions, 200u);
    ASSERT_EQ(oracle.bestPolicy.size(), 2u);
    EXPECT_EQ(oracle.bestPolicy[0], FetchPolicy::Oracle);
    EXPECT_EQ(oracle.bestPolicy[1], FetchPolicy::Resume);
    EXPECT_EQ(oracle.bestPenaltySlots[0], 100u);
    EXPECT_EQ(oracle.bestPenaltySlots[1], 50u);
    EXPECT_DOUBLE_EQ(oracle.oracleIspi, 150.0 / 200.0);
    EXPECT_EQ(oracle.bestStaticIndex(), 1u);
    EXPECT_EQ(oracle.bestStaticPolicy(), FetchPolicy::Resume);
    EXPECT_DOUBLE_EQ(oracle.bestStaticIspi(), 1.0);
}

TEST(Oracle, TiesBreakTowardPresentationOrder)
{
    std::vector<FetchPolicy> policies{FetchPolicy::Oracle,
                                      FetchPolicy::Resume};
    std::vector<std::vector<EpochRecord>> epochs{
        {penaltyEpoch(0, 100)},
        {penaltyEpoch(0, 100)},
    };
    PerIntervalOracle oracle =
        buildPerIntervalOracle(policies, epochs, {1.0, 1.0}, 100);
    EXPECT_EQ(oracle.bestPolicy[0], FetchPolicy::Oracle);
    EXPECT_EQ(oracle.bestStaticPolicy(), FetchPolicy::Oracle);
}

TEST(OracleDeathTest, MisalignedEpochGridsPanic)
{
    std::vector<FetchPolicy> policies{FetchPolicy::Oracle,
                                      FetchPolicy::Resume};
    std::vector<std::vector<EpochRecord>> short_epochs{
        {penaltyEpoch(0, 100), penaltyEpoch(1, 100)},
        {penaltyEpoch(0, 100)},
    };
    EXPECT_DEATH(buildPerIntervalOracle(policies, short_epochs,
                                        {1.0, 1.0}, 100),
                 "epoch");
}

TEST(Oracle, RegretMathFoldsAgainstTheBound)
{
    PerIntervalOracle oracle;
    oracle.policies = {FetchPolicy::Oracle, FetchPolicy::Resume};
    oracle.staticIspi = {1.0, 1.2};
    oracle.oracleIspi = 0.5;

    AdaptiveRegret regret = computeRegret(0.8, oracle);
    EXPECT_DOUBLE_EQ(regret.adaptiveIspi, 0.8);
    EXPECT_DOUBLE_EQ(regret.bestStaticIspi, 1.0);
    EXPECT_EQ(regret.bestStaticPolicy, FetchPolicy::Oracle);
    EXPECT_DOUBLE_EQ(regret.regret, 0.8 - 0.5);
    EXPECT_DOUBLE_EQ(regret.gapClosed, (1.0 - 0.8) / (1.0 - 0.5));

    // Degenerate gap: the bound equals the best static policy.
    oracle.oracleIspi = 1.0;
    EXPECT_DOUBLE_EQ(computeRegret(0.9, oracle).gapClosed, 1.0);
    EXPECT_DOUBLE_EQ(computeRegret(1.1, oracle).gapClosed, 0.0);
}

TEST(Oracle, DominatesEveryStaticPolicyOnARealWorkload)
{
    SimConfig base;
    base.instructionBudget = 100'000;
    PerIntervalOracle oracle =
        computePerIntervalOracle(*sharedWorkload("li"), base, 20'000);

    ASSERT_EQ(oracle.policies.size(), allPolicies().size());
    ASSERT_EQ(oracle.bestPolicy.size(), 5u);
    for (double static_ispi : oracle.staticIspi)
        EXPECT_LE(oracle.oracleIspi, static_ispi + 1e-12);
    // Epoch by epoch the bound is the minimum over the candidates.
    for (size_t e = 0; e < oracle.bestPolicy.size(); ++e) {
        for (size_t p = 0; p < oracle.policies.size(); ++p) {
            EXPECT_LE(oracle.bestPenaltySlots[e],
                      oracle.epochs[p][e].penalty.totalSlots());
        }
    }
}

TEST(AdaptiveRecord, SchemaCarriesChoicesAndOptionalRegret)
{
    RunObservations obs;
    SimResults results = runAdaptive("li", SelectorKind::Threshold,
                                     60'000, 20'000, obs);
    SimConfig config;
    config.instructionBudget = 60'000;
    config.adaptiveSelector = SelectorKind::Threshold;
    config.adaptiveInterval = 20'000;

    JsonValue record = makeAdaptiveRecord(obs.adaptive, results, config);
    EXPECT_EQ(member(record, "record").asString(), "adaptive");
    EXPECT_EQ(member(record, "selector").asString(), "threshold");
    EXPECT_EQ(member(record, "adaptive_interval").asUint(), 20'000u);
    EXPECT_EQ(member(record, "epochs").asUint(), 3u);
    EXPECT_EQ(member(record, "workload").asString(), "li");
    EXPECT_EQ(record.find("regret"), nullptr);
    const JsonValue &choices = member(record, "choices");
    ASSERT_EQ(choices.size(), 3u);
    EXPECT_EQ(member(choices.at(0), "first_instruction").asUint(), 0u);
    EXPECT_EQ(member(choices.at(2), "last_instruction").asUint(),
              60'000u);

    AdaptiveRegret regret;
    regret.adaptiveIspi = results.ispi();
    regret.bestStaticIspi = 1.0;
    regret.oracleIspi = 0.5;
    regret.regret = regret.adaptiveIspi - 0.5;
    regret.gapClosed = 0.25;
    JsonValue with_regret =
        makeAdaptiveRecord(obs.adaptive, results, config, &regret);
    const JsonValue &block = member(with_regret, "regret");
    EXPECT_DOUBLE_EQ(member(block, "gap_closed").asDouble(), 0.25);
    EXPECT_EQ(member(block, "best_static_policy").asString(), "Resume");
}

TEST(Invariant, AdaptiveEpochTilingAcceptsAWellFormedLog)
{
    AdaptiveLog log;
    log.interval = 100;
    log.basePolicy = FetchPolicy::Resume;
    log.choices = {
        {0, FetchPolicy::Resume, 0, 100},
        {1, FetchPolicy::Optimistic, 100, 200},
        {2, FetchPolicy::Optimistic, 200, 250},
    };
    log.switches = 1;
    SimResults stats;
    stats.instructions = 250;

    AuditContext ctx;
    ctx.stats = &stats;
    ctx.adaptiveLog = &log;
    ctx.endOfRun = true;
    InvariantAuditor auditor =
        InvariantAuditor::standard(CheckLevel::Cheap);
    auditor.runChecks(ctx);
    for (const InvariantViolation &violation : auditor.violations())
        EXPECT_NE(violation.invariant, "adaptive-epoch-tiling")
            << violation.detail;
}

TEST(Invariant, AdaptiveEpochTilingFlagsEveryDefectKind)
{
    SimResults stats;
    stats.instructions = 300;
    auto violations = [&stats](const AdaptiveLog &log) {
        AuditContext ctx;
        ctx.stats = &stats;
        ctx.adaptiveLog = &log;
        ctx.endOfRun = true;
        InvariantAuditor auditor =
            InvariantAuditor::standard(CheckLevel::Cheap);
        auditor.runChecks(ctx);
        size_t count = 0;
        for (const InvariantViolation &violation : auditor.violations())
            count += violation.invariant == "adaptive-epoch-tiling";
        return count;
    };

    AdaptiveLog good;
    good.interval = 100;
    good.choices = {{0, FetchPolicy::Resume, 0, 100},
                    {1, FetchPolicy::Resume, 100, 200},
                    {2, FetchPolicy::Resume, 200, 300}};
    good.switches = 0;
    EXPECT_EQ(violations(good), 0u);

    AdaptiveLog gapped = good;
    gapped.choices[1].firstInstruction = 150;   // off-grid + gap
    EXPECT_GE(violations(gapped), 1u);

    AdaptiveLog short_epoch = good;
    short_epoch.choices[1].lastInstruction = 150;
    EXPECT_GE(violations(short_epoch), 1u);

    AdaptiveLog wrong_switches = good;
    wrong_switches.switches = 3;
    EXPECT_EQ(violations(wrong_switches), 1u);

    AdaptiveLog uncovered = good;
    uncovered.choices.pop_back();
    EXPECT_EQ(violations(uncovered), 1u);

    // A disarmed or empty log is skipped, never flagged.
    AdaptiveLog off;
    EXPECT_EQ(violations(off), 0u);
}
