/**
 * @file
 * Tests for the counter table (core/counters.hh) and the stat dump
 * derived from it: statsDump() and visitStats() name every table row
 * sim.<group>.<record key> and evaluate derived values at dump time,
 * and every row is counted by the simulator and reaches the run
 * record.
 */

#include "core/counters.hh"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/results.hh"
#include "core/simulator.hh"
#include "report/record.hh"

using namespace specfetch;

namespace {

std::string
statName(const CounterField &field)
{
    return std::string("sim.") + field.group + "." + field.key;
}

/** Names visitStats() reports, in order; counters only when asked. */
std::vector<std::string>
visitedNames(bool countersOnly)
{
    std::vector<std::string> names;
    SimResults{}.visitStats([&](const std::string &name,
                                const std::string &, bool isCounter) {
        if (isCounter || !countersOnly)
            names.push_back(name);
    });
    return names;
}

/** The statsDump() line of stat @p name, or "" when absent. */
std::string
dumpLine(const SimResults &r, const std::string &name)
{
    std::string dump = r.statsDump();
    size_t at = dump.find(name + " ");
    if (at == std::string::npos)
        return "";
    return dump.substr(at, dump.find('\n', at) - at);
}

bool
contains(const std::string &text, const std::string &part)
{
    return text.find(part) != std::string::npos;
}

TEST(StatGroup, CountersVisitWithQualifiedNames)
{
    // The dump's counters: the frontend clocks, then the table rows.
    std::vector<std::string> expected{"sim.frontend.instructions",
                                      "sim.frontend.slots"};
    for (const CounterField &field : kCounterFields)
        expected.push_back(statName(field));
    EXPECT_EQ(visitedNames(/*countersOnly=*/true), expected);
}

TEST(StatGroup, FormulaEvaluatesLazily)
{
    SimResults r;
    r.instructions = 4;
    r.demandMisses = 3;
    EXPECT_TRUE(contains(dumpLine(r, "sim.icache.miss_rate"), " 0.750000 "));
    r.demandMisses = 1;
    EXPECT_TRUE(contains(dumpLine(r, "sim.icache.miss_rate"), " 0.250000 "));
}

TEST(StatGroup, NestedGroupsQualifyNames)
{
    // Every stat sits in one of three groups under "sim", each group
    // contiguous, in frontend/branch/icache order.
    std::vector<std::string> groups;
    for (const std::string &name : visitedNames(/*countersOnly=*/false)) {
        ASSERT_EQ(name.rfind("sim.", 0), 0u) << name;
        std::string group = name.substr(4, name.find('.', 4) - 4);
        if (groups.empty() || groups.back() != group)
            groups.push_back(group);
    }
    EXPECT_EQ(groups,
              (std::vector<std::string>{"frontend", "branch", "icache"}));
}

TEST(StatGroup, DumpContainsDescriptions)
{
    SimResults r;
    r.controlInsts = 42;
    EXPECT_TRUE(contains(dumpLine(r, "sim.branch.control_insts"), " 42 "));
    for (const CounterField &field : kCounterFields) {
        EXPECT_TRUE(contains(dumpLine(r, statName(field)),
                             std::string("# ") + field.description))
            << statName(field);
    }
}

TEST(StatGroup, DumpFormatsFractions)
{
    SimResults r;
    r.instructions = 8;
    r.demandMisses = 1;
    EXPECT_TRUE(contains(dumpLine(r, "sim.icache.miss_rate"), " 0.125000 "));
    EXPECT_TRUE(contains(dumpLine(r, "sim.icache.demand_misses"), " 1 "));
}

TEST(CounterTable, EveryCounterIsLive)
{
    // Every counter the dump reports outside the frontend clocks is a
    // table row named sim.<group>.<key>, and <key> is in the record.
    std::set<std::string> rows;
    for (const CounterField &field : kCounterFields)
        rows.insert(statName(field));
    for (const std::string &name : visitedNames(/*countersOnly=*/true)) {
        EXPECT_TRUE(rows.count(name) || name == "sim.frontend.instructions" ||
                    name == "sim.frontend.slots")
            << name;
    }

    // gcc under every policy, with and without next-line prefetch:
    // each row must count something in at least one run (else nothing
    // updates it) and reach the run record under its key.
    std::vector<bool> live(std::size(kCounterFields), false);
    for (FetchPolicy policy : allPolicies()) {
        for (bool prefetch : {false, true}) {
            SimConfig config;
            config.instructionBudget = 20'000;
            config.policy = policy;
            config.nextLinePrefetch = prefetch;
            SimResults r = runBenchmark("gcc", config);
            JsonValue record = makeRunRecord(r, config);
            const JsonValue *counters = record.find("counters");
            ASSERT_NE(counters, nullptr);
            for (size_t i = 0; i < std::size(kCounterFields); ++i) {
                const CounterField &field = kCounterFields[i];
                live[i] = live[i] || r.*field.member > 0;
                const JsonValue *count = counters->find(field.key);
                ASSERT_NE(count, nullptr) << field.key;
                EXPECT_EQ(count->asUint(), r.*field.member) << field.key;
            }
        }
    }
    for (size_t i = 0; i < std::size(kCounterFields); ++i)
        EXPECT_TRUE(live[i]) << kCounterFields[i].key << " never counts";
}

} // namespace
