/**
 * @file
 * End-to-end integration: full pipeline (profile -> build -> layout ->
 * execute -> simulate -> classify) across all thirteen benchmarks,
 * plus the sweep driver.
 */

#include <gtest/gtest.h>

#include "core/miss_classifier.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "experiments.hh"
#include "report/record.hh"
#include "workload/registry.hh"

namespace specfetch {
namespace {

TEST(EndToEnd, EveryBenchmarkRunsEveryPolicy)
{
    SimConfig config;
    config.instructionBudget = 60'000;
    std::vector<SimResults> results =
        runPolicyGrid(benchmarkNames(), config, allPolicies());
    ASSERT_EQ(results.size(), 13u * 5u);
    for (const SimResults &r : results) {
        EXPECT_EQ(r.instructions, 60'000u) << r.workload;
        EXPECT_EQ(static_cast<uint64_t>(r.finalSlot),
                  r.instructions + r.penalty.totalSlots())
            << r.workload << "/" << toString(r.policy);
        EXPECT_FALSE(r.workload.empty());
    }
}

TEST(EndToEnd, SweepPreservesSubmissionOrder)
{
    std::vector<RunSpec> specs;
    SimConfig config;
    config.instructionBudget = 30'000;
    for (const char *bench : {"li", "db++", "idl"}) {
        for (FetchPolicy policy :
             {FetchPolicy::Oracle, FetchPolicy::Resume}) {
            RunSpec spec{bench, config};
            spec.config.policy = policy;
            specs.push_back(spec);
        }
    }
    std::vector<SimResults> results = runSweep(specs);
    ASSERT_EQ(results.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(results[i].workload, specs[i].benchmark) << i;
        EXPECT_EQ(results[i].policy, specs[i].config.policy) << i;
    }
}

TEST(EndToEnd, ParallelAndSerialSweepsAgree)
{
    std::vector<RunSpec> specs;
    SimConfig config;
    config.instructionBudget = 30'000;
    for (FetchPolicy policy : allPolicies()) {
        RunSpec spec{"li", config};
        spec.config.policy = policy;
        specs.push_back(spec);
    }
    std::vector<SimResults> serial = runSweep(specs, 1);
    std::vector<SimResults> parallel = runSweep(specs, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].finalSlot, parallel[i].finalSlot) << i;
        EXPECT_EQ(serial[i].demandMisses, parallel[i].demandMisses)
            << i;
    }
}

TEST(EndToEnd, RunBenchmarkConvenienceWrapper)
{
    SimConfig config;
    config.instructionBudget = 30'000;
    config.policy = FetchPolicy::Resume;
    SimResults r = runBenchmark("tex", config);
    EXPECT_EQ(r.workload, "tex");
    EXPECT_EQ(r.instructions, 30'000u);
}

TEST(EndToEnd, ClassificationForAllBenchmarks)
{
    SimConfig config;
    config.instructionBudget = 60'000;
    for (const std::string &name : benchmarkNames()) {
        Workload w = buildWorkload(getProfile(name));
        Classification c = classifyMisses(w, config);
        EXPECT_EQ(c.instructions, 60'000u) << name;
        EXPECT_GE(c.trafficRatio(), 1.0) << name;
        // Sanity: categories are disjoint and bounded by accesses.
        EXPECT_LE(c.bothMiss + c.specPollute + c.specPrefetch,
                  c.instructions)
            << name;
    }
}

TEST(EndToEnd, SummaryRendersForHumanConsumption)
{
    SimConfig config;
    config.instructionBudget = 30'000;
    SimResults r = runBenchmark("gcc", config);
    std::string text = r.summary();
    EXPECT_NE(text.find("gcc"), std::string::npos);
    EXPECT_NE(text.find("ISPI"), std::string::npos);
    EXPECT_NE(text.find("rt_icache"), std::string::npos);
    EXPECT_NE(text.find("miss rate"), std::string::npos);
}

TEST(EndToEnd, ReorderedCellsRecordTheirOwnWorkload)
{
    // The §6 row's reordering table: each program at the row's machine,
    // before and after profile-driven block reordering.
    const bench::Experiment &row = *std::find_if(
        bench::experiments().begin(), bench::experiments().end(),
        [](const bench::Experiment &r) {
            return r.name == "ablation_future_work";
        });
    SimConfig base = row.base;
    base.instructionBudget = 30'000;
    std::vector<RunSpec> specs;
    for (const RunSpec &spec : bench::distinct(row.cells(base)))
        if (toJson(spec.config) == toJson(base))
            specs.push_back(spec);
    ASSERT_EQ(specs.size(), 2 * bench::kFutureWorkPrograms.size());

    std::vector<Classification> classifications;
    SweepOptions options;
    options.classifications = &classifications;
    std::vector<SimResults> results = runSweep(specs, options).results;
    std::map<std::string, SimResults> byWorkload;
    for (size_t i = 0; i < specs.size(); ++i) {
        JsonValue record = makeRunRecord(results[i], specs[i].config,
                                         nullptr, &classifications[i]);
        EXPECT_EQ(record.find("workload")->asString(), specs[i].benchmark);
        EXPECT_EQ(classifications[i].workload, specs[i].benchmark);
        byWorkload.emplace(specs[i].benchmark, results[i]);
    }
    for (const std::string &name : bench::kFutureWorkPrograms) {
        ASSERT_TRUE(byWorkload.count(name)) << name;
        ASSERT_TRUE(byWorkload.count(name + "+reordered")) << name;
        EXPECT_NE(byWorkload.at(name), byWorkload.at(name + "+reordered"))
            << name;
    }
}

TEST(EndToEnd, BenchBudgetEnvOverride)
{
    unsetenv("SPECFETCH_BUDGET");
    EXPECT_EQ(benchBudget(123), 123u);
    setenv("SPECFETCH_BUDGET", "2M", 1);
    EXPECT_EQ(benchBudget(123), 2'000'000u);
    setenv("SPECFETCH_BUDGET", "garbage", 1);
    EXPECT_EQ(benchBudget(123), 123u);
    unsetenv("SPECFETCH_BUDGET");
}

} // namespace
} // namespace specfetch
