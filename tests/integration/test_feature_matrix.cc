/**
 * @file
 * Feature-combination matrix: every extension (L2, victim cache,
 * memory channels, each prefetch kind, each PHT scheme, RAS,
 * reordering) composed together must keep the slot ledger balanced,
 * stay deterministic, and not corrupt the baseline semantics.
 */

#include <gtest/gtest.h>

#include "core/simulator.hh"
#include "workload/registry.hh"
#include "workload/reorder.hh"

namespace specfetch {
namespace {

const Workload &
testWorkload()
{
    static const Workload w = buildWorkload(getProfile("groff"));
    return w;
}

class FeatureMatrixTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
  protected:
    SimConfig
    makeConfig() const
    {
        SimConfig config;
        config.instructionBudget = 80'000;
        config.policy =
            std::get<0>(GetParam()) == 0 ? FetchPolicy::Resume
                                         : FetchPolicy::Pessimistic;
        switch (std::get<1>(GetParam())) {
          case 0:
            break;
          case 1:
            config.prefetchKind = PrefetchKind::NextLine;
            break;
          case 2:
            config.prefetchKind = PrefetchKind::Combined;
            break;
          case 3:
            config.prefetchKind = PrefetchKind::Stream;
            break;
        }
        switch (std::get<2>(GetParam())) {
          case 0:
            break;
          case 1:
            config.l2Enabled = true;
            break;
          case 2:
            config.victimEntries = 4;
            break;
          case 3:
            config.l2Enabled = true;
            config.victimEntries = 4;
            config.memoryChannels = 2;
            config.predictor.rasDepth = 8;
            config.predictor.phtIndexing = PhtIndexing::Combining;
            break;
        }
        return config;
    }
};

TEST_P(FeatureMatrixTest, LedgerBalances)
{
    SimResults r = runSimulation(testWorkload(), makeConfig());
    EXPECT_EQ(static_cast<uint64_t>(r.finalSlot),
              r.instructions + r.penalty.totalSlots());
    EXPECT_EQ(r.instructions, 80'000u);
}

TEST_P(FeatureMatrixTest, Deterministic)
{
    SimResults a = runSimulation(testWorkload(), makeConfig());
    SimResults b = runSimulation(testWorkload(), makeConfig());
    EXPECT_EQ(a.finalSlot, b.finalSlot);
    EXPECT_EQ(a.demandMisses, b.demandMisses);
    EXPECT_EQ(a.prefetchesIssued, b.prefetchesIssued);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FeatureMatrixTest,
    ::testing::Combine(::testing::Range(0, 2),    // policy
                       ::testing::Range(0, 4),    // prefetch kind
                       ::testing::Range(0, 4)),   // memory features
    [](const auto &param_info) {
        std::string name = "p";
        name.append(std::to_string(std::get<0>(param_info.param)))
            .append("_pf")
            .append(std::to_string(std::get<1>(param_info.param)))
            .append("_m")
            .append(std::to_string(std::get<2>(param_info.param)));
        return name;
    });

TEST(FeatureMatrix, ReorderedWorkloadComposesWithEverything)
{
    Workload reordered =
        reorderWorkload(testWorkload(), 7, 400'000);
    SimConfig config;
    config.instructionBudget = 80'000;
    config.policy = FetchPolicy::Resume;
    config.prefetchKind = PrefetchKind::Combined;
    config.l2Enabled = true;
    config.victimEntries = 4;
    SimResults r = runSimulation(reordered, config);
    EXPECT_EQ(static_cast<uint64_t>(r.finalSlot),
              r.instructions + r.penalty.totalSlots());
}

} // namespace
} // namespace specfetch
