/**
 * @file
 * Property-based tests: paper-level invariants checked across every
 * benchmark × policy (parameterized sweeps), and the per-profile
 * claims of the experiment table judged one profile at a time. These
 * are the "does the system reproduce the paper's structure" tests, run
 * at reduced budgets.
 */

#include <gtest/gtest.h>

#include "core/simulator.hh"
#include "experiments.hh"
#include "workload/registry.hh"

namespace specfetch {
namespace {

constexpr uint64_t kBudget = 200'000;

SimConfig
baseConfig()
{
    SimConfig config;
    config.instructionBudget = kBudget;
    return config;
}

/** Cache of built workloads shared across tests in this binary. */
const Workload &
workloadFor(const std::string &name)
{
    static std::map<std::string, Workload> cache;
    auto it = cache.find(name);
    if (it == cache.end())
        it = cache.emplace(name, buildWorkload(getProfile(name))).first;
    return it->second;
}

SimResults
run(const std::string &bench, FetchPolicy policy,
    unsigned depth = 4, unsigned penalty = 5, bool prefetch = false)
{
    SimConfig config = baseConfig();
    config.policy = policy;
    config.maxUnresolved = depth;
    config.missPenaltyCycles = penalty;
    config.nextLinePrefetch = prefetch;
    return runSimulation(workloadFor(bench), config);
}

// ---- Per-benchmark × per-policy invariants ----------------------------

struct Combo
{
    std::string bench;
    FetchPolicy policy;
};

class PolicyComboTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
  protected:
    std::string bench() const { return std::get<0>(GetParam()); }
    FetchPolicy
    policy() const
    {
        return allPolicies()[std::get<1>(GetParam())];
    }
};

TEST_P(PolicyComboTest, SlotLedgerBalances)
{
    SimResults r = run(bench(), policy());
    EXPECT_EQ(static_cast<uint64_t>(r.finalSlot),
              r.instructions + r.penalty.totalSlots());
}

TEST_P(PolicyComboTest, ComponentZeroingMatchesPolicy)
{
    SimResults r = run(bench(), policy());
    switch (policy()) {
      case FetchPolicy::Oracle:
      case FetchPolicy::Optimistic:
      case FetchPolicy::Resume:
        EXPECT_EQ(r.penalty.slots(PenaltyKind::ForceResolve), 0u);
        break;
      case FetchPolicy::Pessimistic:
      case FetchPolicy::Decode:
        // Conservative policies never block on wrong-path fills...
        break;
    }
    if (policy() == FetchPolicy::Oracle ||
        policy() == FetchPolicy::Pessimistic ||
        policy() == FetchPolicy::Resume) {
        EXPECT_EQ(r.penalty.slots(PenaltyKind::WrongIcache), 0u);
    }
    if (policy() != FetchPolicy::Resume) {
        // Without prefetching, only Resume leaves the bus busy across
        // a redirect.
        EXPECT_EQ(r.penalty.slots(PenaltyKind::Bus), 0u);
    }
    if (policy() == FetchPolicy::Oracle ||
        policy() == FetchPolicy::Pessimistic) {
        EXPECT_EQ(r.wrongFills, 0u);
    }
}

TEST_P(PolicyComboTest, SaneRates)
{
    SimResults r = run(bench(), policy());
    EXPECT_EQ(r.instructions, kBudget);
    EXPECT_GT(r.ispi(), 0.0);
    EXPECT_LT(r.ispi(), 30.0);
    EXPECT_GE(r.condAccuracy(), 0.3);
    EXPECT_LE(r.condAccuracy(), 1.0);
    EXPECT_LE(r.demandMisses, r.demandAccesses);
    EXPECT_LE(r.demandFills, r.demandMisses);
    EXPECT_LE(r.wrongFills, r.wrongMisses);
}

TEST_P(PolicyComboTest, DeterministicRuns)
{
    SimResults a = run(bench(), policy());
    SimResults b = run(bench(), policy());
    EXPECT_EQ(a.finalSlot, b.finalSlot);
    EXPECT_EQ(a.demandMisses, b.demandMisses);
    EXPECT_EQ(a.penalty.totalSlots(), b.penalty.totalSlots());
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, PolicyComboTest,
    ::testing::Combine(::testing::Values("doduc", "fpppp", "gcc", "li",
                                         "cfront", "groff", "idl"),
                       ::testing::Range(0, 5)),
    [](const auto &param_info) {
        std::string name = std::get<0>(param_info.param) + "_" +
                           shortName(allPolicies()[std::get<1>(param_info.param)]);
        for (char &c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

// ---- Cross-policy orderings (paper §5) --------------------------------

/**
 * Each test judges one per-profile claim of the experiment table
 * (bench/experiments.hh), which states it once for bench/paper too,
 * on its profile alone: the claim's row's cells of that profile.
 */
class BenchTest : public ::testing::TestWithParam<std::string>
{
  protected:
    void
    expectClaim(const std::string &name)
    {
        for (const bench::Experiment &row : bench::experiments()) {
            for (const bench::Claim &claim : row.claims) {
                if (row.name + "." + claim.name != name)
                    continue;
                SimConfig base = row.base;
                base.instructionBudget = kBudget;
                std::vector<RunSpec> specs;
                for (const RunSpec &spec : bench::distinct(row.cells(base)))
                    if (spec.benchmark == GetParam())
                        specs.push_back(spec);
                std::vector<Classification> classifications;
                SweepOptions options;
                options.classifications = &classifications;
                bench::Cells cells = bench::cellsOf(
                    specs, runSweep(specs, options).results,
                    classifications);
                bench::Verdict verdict =
                    claim.check(bench::View{cells, base, GetParam()});
                EXPECT_TRUE(verdict.holds)
                    << name << "[" << GetParam() << "]: " << verdict.detail;
                return;
            }
        }
        FAIL() << "no claim " << name;
    }
};

TEST_P(BenchTest, PessimisticTrafficEqualsOracle)
{
    expectClaim("fig1.pessimistic_traffic_equals_oracle");
}

TEST_P(BenchTest, AggressivePoliciesGenerateMoreTraffic)
{
    expectClaim("fig1.aggressive_policies_add_traffic");
}

TEST_P(BenchTest, ResumeNoWorseThanOptimistic)
{
    expectClaim("fig1.resume_no_worse_than_optimistic");
}

TEST_P(BenchTest, BaselineOptimisticBeatsPessimistic)
{
    expectClaim("fig1.optimistic_beats_pessimistic");
}

TEST_P(BenchTest, DeeperSpeculationHelps)
{
    expectClaim("table5.deeper_speculation_helps");
}

TEST_P(BenchTest, LargerCacheShrinksIspi)
{
    expectClaim("table6.larger_cache_shrinks_ispi");
}

TEST_P(BenchTest, PrefetchIncreasesTraffic)
{
    expectClaim("fig3.prefetch_adds_traffic");
}

TEST_P(BenchTest, PrefetchHelpsAtSmallPenalty)
{
    expectClaim("fig3.prefetch_helps");
}

TEST_P(BenchTest, LongLatencyFavorsConservative)
{
    expectClaim("fig2.long_latency_favors_conservative");
}

INSTANTIATE_TEST_SUITE_P(CrossPolicy, BenchTest,
                         ::testing::Values("gcc", "li", "groff", "idl",
                                           "lic", "ditroff"),
                         [](const auto &param_info) {
                             std::string name = param_info.param;
                             for (char &c : name)
                                 if (!isalnum(static_cast<unsigned char>(c)))
                                     c = '_';
                             return name;
                         });

} // namespace
} // namespace specfetch
