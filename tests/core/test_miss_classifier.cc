/**
 * @file
 * Tests for the Table 4 miss classifier: hand-built pollution and
 * prefetch scenarios plus the paper's accounting identities.
 */

#include <gtest/gtest.h>

#include "core/miss_classifier.hh"
#include "core/simulator.hh"
#include "workload/registry.hh"

namespace specfetch {
namespace {

Workload
benchWorkload(const std::string &name)
{
    return buildWorkload(getProfile(name));
}

SimConfig
smallConfig()
{
    SimConfig config;
    config.instructionBudget = 300'000;
    return config;
}

TEST(MissClassifier, IdentityOracleMissesMatchOraclePolicyRun)
{
    // BM + SPr is the oracle shadow's miss count. A real
    // Oracle-policy run sees the same correct-path instruction stream
    // but slightly different redirect timing (stall patterns shift
    // when the non-speculative PHT resolves relative to fetch), so
    // the counts agree closely but not bit-exactly.
    Workload w = benchWorkload("li");
    SimConfig config = smallConfig();
    Classification c = classifyMisses(w, config);

    config.policy = FetchPolicy::Oracle;
    SimResults oracle = runSimulation(w, config);

    EXPECT_EQ(c.instructions, oracle.instructions);
    double rel = std::abs(static_cast<double>(c.oracleMisses()) -
                          static_cast<double>(oracle.demandMisses)) /
                 static_cast<double>(oracle.demandMisses);
    EXPECT_LT(rel, 0.02);
}

TEST(MissClassifier, IdentityOptimisticMissesMatchOptimisticRun)
{
    Workload w = benchWorkload("li");
    SimConfig config = smallConfig();
    Classification c = classifyMisses(w, config);

    config.policy = FetchPolicy::Optimistic;
    SimResults optimistic = runSimulation(w, config);

    // BM + SPo = Optimistic's correct-path misses; WP = its serviced
    // wrong-path misses. Same engine, same seed: exact.
    EXPECT_EQ(c.bothMiss + c.specPollute, optimistic.demandMisses);
    EXPECT_EQ(c.wrongPath, optimistic.wrongFills);
}

TEST(MissClassifier, PrefetchEffectDominatesPollution)
{
    // Paper Table 4: for every benchmark Spec Prefetch > Spec Pollute.
    for (const char *name : {"gcc", "groff", "li"}) {
        Classification c =
            classifyMisses(benchWorkload(name), smallConfig());
        EXPECT_GT(c.specPrefetch, c.specPollute) << name;
    }
}

TEST(MissClassifier, TrafficRatioAboveOne)
{
    // Wrong-path servicing can only add misses: Optimistic >= Oracle.
    for (const char *name : {"gcc", "ditroff"}) {
        Classification c =
            classifyMisses(benchWorkload(name), smallConfig());
        EXPECT_GE(c.trafficRatio(), 1.0) << name;
        EXPECT_LT(c.trafficRatio(), 3.0) << name;
    }
}

TEST(MissClassifier, FortranProfilesHaveSmallSpeculativeEffects)
{
    // Paper: "In the case of the Fortran programs, both effects are
    // minimal."
    Classification fortran =
        classifyMisses(benchWorkload("fpppp"), smallConfig());
    EXPECT_LT(fortran.specPollutePercent(), 0.3);

    Classification branchy =
        classifyMisses(benchWorkload("gcc"), smallConfig());
    EXPECT_GT(branchy.wrongPathPercent(),
              fortran.wrongPathPercent());
}

TEST(MissClassifier, PercentagesUseInstructionDenominator)
{
    Classification c;
    c.instructions = 1000;
    c.bothMiss = 20;
    c.specPollute = 5;
    c.specPrefetch = 10;
    c.wrongPath = 15;
    EXPECT_DOUBLE_EQ(c.bothMissPercent(), 2.0);
    EXPECT_DOUBLE_EQ(c.specPollutePercent(), 0.5);
    EXPECT_DOUBLE_EQ(c.specPrefetchPercent(), 1.0);
    EXPECT_DOUBLE_EQ(c.wrongPathPercent(), 1.5);
    EXPECT_EQ(c.oracleMisses(), 30u);
    EXPECT_EQ(c.optimisticMisses(), 40u);
    EXPECT_NEAR(c.trafficRatio(), 40.0 / 30.0, 1e-12);
}

TEST(MissClassifier, ArmedSelectorLeavesTaxonomyUnchanged)
{
    // The taxonomy compares Optimistic with Oracle; a per-epoch
    // selector left armed would switch the classification run to other
    // policies mid-stream.
    Workload w = benchWorkload("gcc");
    SimConfig config;
    config.instructionBudget = 500'000;
    Classification reference = classifyMisses(w, config);

    config.adaptiveSelector = SelectorKind::Bandit;
    config.adaptiveEpsilon = 0.3;
    config.adaptiveInterval = 20'000;
    EXPECT_EQ(classifyMisses(w, config), reference);
    EXPECT_EQ(classificationConfig(config).adaptiveSelector,
              SelectorKind::Off);
}

TEST(MissClassifier, DeterministicAcrossCalls)
{
    Workload w = benchWorkload("idl");
    Classification a = classifyMisses(w, smallConfig());
    Classification b = classifyMisses(w, smallConfig());
    EXPECT_EQ(a.bothMiss, b.bothMiss);
    EXPECT_EQ(a.specPollute, b.specPollute);
    EXPECT_EQ(a.specPrefetch, b.specPrefetch);
    EXPECT_EQ(a.wrongPath, b.wrongPath);
}

} // namespace
} // namespace specfetch
