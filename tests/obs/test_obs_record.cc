/**
 * @file
 * Record-layer tests for the observability payloads: the schema of
 * timeseries/heatmap rows, the conditional manifest members that keep
 * disabled runs byte-identical, a serial-vs-parallel determinism pin,
 * and golden-file regressions on the full timeseries and heatmap bytes.
 *
 * Regenerating the golden files after an intentional numeric or schema
 * change:
 *
 *   SPECFETCH_REGEN_GOLDEN=1 ./build/tests/test_obs \
 *       --gtest_filter='Golden*'
 */

#include "obs/obs_record.hh"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>

#include "core/simulator.hh"
#include "core/sweep.hh"
#include "report/record.hh"
#include "report/report.hh"
#include "util/logging.hh"
#include "workload/registry.hh"

using namespace specfetch;

namespace {

/** Golden parameters: bound to tests/golden/{timeseries,heatmap}_li.json. */
constexpr uint64_t kGoldenBudget = 100'000;
constexpr uint64_t kGoldenInterval = 20'000;

const std::vector<FetchPolicy> &
goldenPolicies()
{
    static const std::vector<FetchPolicy> policies{
        FetchPolicy::Oracle, FetchPolicy::Optimistic};
    return policies;
}

std::string
goldenPath(const std::string &file)
{
#ifdef SPECFETCH_GOLDEN_DIR
    return std::string(SPECFETCH_GOLDEN_DIR) + "/" + file;
#else
    return "tests/golden/" + file;
#endif
}

bool
regenRequested()
{
    const char *env = std::getenv("SPECFETCH_REGEN_GOLDEN");
    return env && *env && std::string(env) != "0";
}

std::vector<RunSpec>
goldenSpecs()
{
    std::vector<RunSpec> specs;
    for (FetchPolicy policy : goldenPolicies()) {
        SimConfig config;
        config.instructionBudget = kGoldenBudget;
        config.sampleInterval = kGoldenInterval;
        config.setHeatmap = true;
        config.policy = policy;
        specs.push_back(RunSpec{"li", config});
    }
    return specs;
}

/** The golden specs' timeseries and heatmap rows, one per spec. */
struct GoldenRows
{
    std::vector<JsonValue> timeseries;
    std::vector<JsonValue> heatmap;
};

GoldenRows
goldenRows(unsigned parallelism)
{
    std::vector<RunSpec> specs = goldenSpecs();
    std::vector<RunObservations> observations;
    std::vector<SimResults> results =
        runSweep(specs, parallelism, nullptr, &observations);
    GoldenRows rows;
    for (size_t i = 0; i < specs.size(); ++i) {
        rows.timeseries.push_back(makeTimeseriesRecord(
            observations[i], results[i], specs[i].config));
        const SetHeatmap *heatmap = observations[i].heatmap.get();
        EXPECT_NE(heatmap, nullptr) << "golden spec " << i;
        if (heatmap) {
            rows.heatmap.push_back(
                makeHeatmapRecord(*heatmap, results[i], specs[i].config));
        }
    }
    return rows;
}

/**
 * Compare @p records with the checked-in JSONL @p file, or rewrite the
 * file when SPECFETCH_REGEN_GOLDEN is set.
 */
void
expectMatchesGolden(const std::vector<JsonValue> &records,
                    const std::string &file, const char *kind)
{
    const std::string path = goldenPath(file);
    if (regenRequested()) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        for (const JsonValue &record : records)
            out << record.dump() << '\n';
        GTEST_SKIP() << "regenerated " << path;
    }

    std::vector<JsonValue> golden;
    std::string error;
    ASSERT_TRUE(readJsonl(path, golden, &error))
        << error << " — regenerate with SPECFETCH_REGEN_GOLDEN=1 "
        << "(see file header)";
    ASSERT_EQ(golden.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i], golden[i])
            << kind << " row " << i << " diverged ("
            << toString(goldenPolicies()[i]) << ")";
    }
}

TEST(ObsRecord, TimeseriesRecordShape)
{
    SimConfig config;
    config.instructionBudget = 30'000;
    config.sampleInterval = 10'000;
    RunObservations obs;
    SimResults results =
        runSimulation(*sharedWorkload("li"), config, obs);

    JsonValue record = makeTimeseriesRecord(obs, results, config);
    EXPECT_EQ(record.find("schema_version")->asUint(),
              static_cast<uint64_t>(kReportSchemaVersion));
    EXPECT_EQ(record.find("record")->asString(), "timeseries");
    EXPECT_EQ(record.find("workload")->asString(), "li");
    EXPECT_EQ(record.find("sample_interval")->asUint(), 10'000u);
    const JsonValue *epochs = record.find("epochs");
    ASSERT_NE(epochs, nullptr);
    ASSERT_EQ(epochs->size(), obs.epochs.size());

    std::string dump = epochs->at(0).dump();
    for (const char *member :
         {"\"first_instruction\"", "\"penalty_slots\"", "\"derived\"",
          "\"ispi\"", "\"miss_rate_percent\"", "\"partial\""}) {
        EXPECT_NE(dump.find(member), std::string::npos)
            << "epoch JSON lacks " << member;
    }
}

TEST(ObsRecord, TimeseriesRecordRequiresEpochs)
{
    ScopedThrowOnError guard;
    RunObservations empty;
    SimResults results;
    SimConfig config;
    EXPECT_THROW(makeTimeseriesRecord(empty, results, config),
                 SimulationError);
}

TEST(ObsRecord, HeatmapRecordShape)
{
    SimConfig config;
    config.instructionBudget = 30'000;
    config.policy = FetchPolicy::Optimistic;
    config.setHeatmap = true;
    RunObservations obs;
    SimResults results =
        runSimulation(*sharedWorkload("li"), config, obs);
    ASSERT_NE(obs.heatmap, nullptr);

    JsonValue record = makeHeatmapRecord(*obs.heatmap, results, config);
    EXPECT_EQ(record.find("record")->asString(), "heatmap");
    const JsonValue *heatmap = record.find("heatmap");
    ASSERT_NE(heatmap, nullptr);
    const JsonValue *geometry = heatmap->find("geometry");
    ASSERT_NE(geometry, nullptr);
    EXPECT_EQ(geometry->find("sets")->asUint(),
              config.icache.numSets());
    const JsonValue *sets = heatmap->find("sets");
    ASSERT_NE(sets, nullptr);
    for (const char *series :
         {"demand_accesses", "demand_misses", "correct_fills",
          "wrong_accesses", "wrong_misses", "wrong_fills",
          "evictions_by_correct", "evictions_by_wrong"}) {
        const JsonValue *column = sets->find(series);
        ASSERT_NE(column, nullptr) << series;
        EXPECT_EQ(column->size(), config.icache.numSets()) << series;
    }
    const JsonValue *summary = heatmap->find("summary");
    ASSERT_NE(summary, nullptr);
    const JsonValue *distribution = summary->find("wrong_fills_per_set");
    ASSERT_NE(distribution, nullptr);
    for (const char *stat : {"mean", "max", "p50", "p90", "p99"})
        EXPECT_NE(distribution->find(stat), nullptr) << stat;
}

/** The manifest carries the obs knobs only when armed, so runs with
 *  observability off serialize byte-identically to the pre-obs
 *  schema (the golden run-record suite pins the full bytes). */
TEST(ObsRecord, ManifestMembersOnlyWhenArmed)
{
    SimConfig off;
    std::string plain = toJson(off).dump();
    EXPECT_EQ(plain.find("sample_interval"), std::string::npos);
    EXPECT_EQ(plain.find("set_heatmap"), std::string::npos);

    SimConfig on;
    on.sampleInterval = 5'000;
    on.setHeatmap = true;
    std::string armed = toJson(on).dump();
    EXPECT_NE(armed.find("\"sample_interval\":5000"), std::string::npos);
    EXPECT_NE(armed.find("\"set_heatmap\":true"), std::string::npos);
}

TEST(ObsRecord, SerialAndParallelSweepsEmitIdenticalRows)
{
    GoldenRows serial = goldenRows(/*parallelism=*/1);
    GoldenRows parallel = goldenRows(/*parallelism=*/4);
    ASSERT_EQ(serial.timeseries.size(), parallel.timeseries.size());
    ASSERT_EQ(serial.heatmap.size(), parallel.heatmap.size());
    for (size_t i = 0; i < serial.timeseries.size(); ++i) {
        EXPECT_EQ(serial.timeseries[i].dump(), parallel.timeseries[i].dump())
            << "timeseries row " << i << " depends on sweep parallelism";
    }
    for (size_t i = 0; i < serial.heatmap.size(); ++i) {
        EXPECT_EQ(serial.heatmap[i].dump(), parallel.heatmap[i].dump())
            << "heatmap row " << i << " depends on sweep parallelism";
    }
}

TEST(GoldenTimeseries, MatchesCheckedInRows)
{
    expectMatchesGolden(goldenRows(/*parallelism=*/1).timeseries,
                        "timeseries_li.json", "timeseries");
}

TEST(GoldenHeatmap, MatchesCheckedInRows)
{
    expectMatchesGolden(goldenRows(/*parallelism=*/1).heatmap,
                        "heatmap_li.json", "heatmap");
}

} // namespace
