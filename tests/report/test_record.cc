/**
 * @file
 * Schema tests for the run-record serializer: field presence, exact
 * counter values, round-trip parsing, CSV flattening, the JSONL/CSV
 * file writers, and the service's spliced response line.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>

#include "core/miss_classifier.hh"
#include "report/armed_configs.hh"
#include "report/record.hh"
#include "report/report.hh"
#include "report/serve_record.hh"
#include "serve/request.hh"
#include "temp_path.hh"

using namespace specfetch;

namespace {

SimResults
sampleResults()
{
    SimResults r;
    r.workload = "gcc";
    r.policy = FetchPolicy::Resume;
    r.prefetch = true;
    r.instructions = 100'000;
    r.finalSlot = 250'000;
    r.controlInsts = 17'000;
    r.condBranches = 12'000;
    r.misfetches = 800;
    r.dirMispredicts = 900;
    r.targetMispredicts = 70;
    r.demandAccesses = 60'000;
    r.demandMisses = 2'500;
    r.demandFills = 2'300;
    r.bufferHits = 200;
    r.wrongAccesses = 9'000;
    r.wrongMisses = 700;
    r.wrongFills = 650;
    r.prefetchesIssued = 1'200;
    r.penalty.charge(PenaltyKind::Branch, 30'000);
    r.penalty.charge(PenaltyKind::RtIcache, 40'000);
    r.penalty.charge(PenaltyKind::Bus, 5'000);
    return r;
}

SimConfig
sampleConfig()
{
    SimConfig config;
    config.policy = FetchPolicy::Resume;
    config.nextLinePrefetch = true;
    config.instructionBudget = 100'000;
    return config;
}

const JsonValue &
member(const JsonValue &object, const std::string &key)
{
    const JsonValue *value = object.find(key);
    EXPECT_NE(value, nullptr) << "missing member: " << key;
    static JsonValue fallback;
    return value ? *value : fallback;
}

/** Parse @p text as a manifest; false (with @p error) on refusal. */
bool
readManifest(const std::string &text, SimConfig &out, std::string &error)
{
    JsonValue manifest;
    if (!JsonValue::parse(text, manifest, &error))
        return false;
    return configFromJson(manifest, out, &error);
}

} // namespace

TEST(Record, RunRecordSchemaFields)
{
    JsonValue record = makeRunRecord(sampleResults(), sampleConfig());

    EXPECT_EQ(member(record, "schema_version").asUint(),
              kReportSchemaVersion);
    EXPECT_EQ(member(record, "record").asString(), "run");
    EXPECT_EQ(member(record, "workload").asString(), "gcc");
    EXPECT_EQ(member(record, "policy").asString(), "Resume");
    EXPECT_EQ(member(record, "prefetch").asString(), "next-line");

    const JsonValue &config = member(record, "config");
    EXPECT_EQ(member(config, "policy").asString(), "Resume");
    EXPECT_EQ(member(config, "issue_width").asUint(), 4u);
    EXPECT_EQ(member(config, "max_unresolved").asUint(), 4u);
    EXPECT_EQ(member(config, "miss_penalty_cycles").asUint(), 5u);
    EXPECT_EQ(member(config, "instruction_budget").asUint(), 100'000u);
    EXPECT_EQ(member(config, "run_seed").asUint(), 42u);
    EXPECT_EQ(member(member(config, "icache"), "size_bytes").asUint(),
              8u * 1024u);
    EXPECT_EQ(member(member(config, "predictor"), "pht_indexing")
                  .asString(),
              "gshare");

    const JsonValue &counters = member(record, "counters");
    EXPECT_EQ(member(counters, "instructions").asUint(), 100'000u);
    EXPECT_EQ(member(counters, "final_slot").asUint(), 250'000u);
    EXPECT_EQ(member(counters, "demand_misses").asUint(), 2'500u);
    EXPECT_EQ(member(counters, "wrong_fills").asUint(), 650u);
    EXPECT_EQ(member(counters, "memory_transactions").asUint(),
              2'300u + 650u + 1'200u);

    const JsonValue &penalty = member(counters, "penalty_slots");
    for (PenaltyKind kind : allPenaltyKinds())
        EXPECT_NE(penalty.find(toString(kind)), nullptr)
            << "missing penalty component " << toString(kind);
    EXPECT_EQ(member(penalty, "branch").asUint(), 30'000u);
    EXPECT_EQ(member(penalty, "rt_icache").asUint(), 40'000u);

    const JsonValue &derived = member(record, "derived");
    EXPECT_DOUBLE_EQ(member(derived, "ispi").asDouble(),
                     sampleResults().ispi());
    const JsonValue &components = member(derived, "ispi_components");
    for (PenaltyKind kind : allPenaltyKinds())
        EXPECT_NE(components.find(toString(kind)), nullptr);

    // No timing/classification unless supplied.
    EXPECT_EQ(record.find("timing"), nullptr);
    EXPECT_EQ(record.find("classification"), nullptr);
}

TEST(Record, TimingAndClassificationBlocks)
{
    RunTiming timing;
    timing.runSeconds = 0.125;
    timing.workloadBuildSeconds = 0.5;
    timing.sweepTotalSeconds = 2.0;

    Classification c;
    c.workload = "gcc";
    c.instructions = 100'000;
    c.bothMiss = 2'000;
    c.specPollute = 300;
    c.specPrefetch = 500;
    c.wrongPath = 900;

    JsonValue record =
        makeRunRecord(sampleResults(), sampleConfig(), &timing, &c);

    const JsonValue &t = member(record, "timing");
    EXPECT_DOUBLE_EQ(member(t, "run_seconds").asDouble(), 0.125);
    EXPECT_DOUBLE_EQ(member(t, "workload_build_seconds").asDouble(), 0.5);
    EXPECT_DOUBLE_EQ(member(t, "sweep_total_seconds").asDouble(), 2.0);

    const JsonValue &cls = member(record, "classification");
    EXPECT_EQ(member(cls, "both_miss").asUint(), 2'000u);
    EXPECT_EQ(member(cls, "oracle_misses").asUint(), 2'500u);
    EXPECT_EQ(member(cls, "optimistic_misses").asUint(), 3'200u);
    EXPECT_DOUBLE_EQ(member(cls, "traffic_ratio").asDouble(),
                     c.trafficRatio());
}

TEST(Record, RoundTripThroughText)
{
    RunTiming timing;
    timing.runSeconds = 0.25;
    JsonValue record =
        makeRunRecord(sampleResults(), sampleConfig(), &timing);
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(record.dump(), parsed, &error)) << error;
    EXPECT_EQ(parsed, record);
}

TEST(Record, ManifestRoundTripsEveryMember)
{
    // Together the armed configs write every conditional member and
    // spell every value of both manifest enums.
    std::set<std::string> written;
    std::set<std::string> spelled;
    for (const SimConfig &config : test::armedConfigs()) {
        const JsonValue manifest = toJson(config);
        const std::string text = manifest.dump();
        SimConfig parsed;
        std::string error;
        ASSERT_TRUE(readManifest(text, parsed, error)) << error << text;
        EXPECT_EQ(toJson(parsed).dump(), text);
        EXPECT_EQ(sweepRunKey({"gcc", parsed}), sweepRunKey({"gcc", config}));
        for (const auto &[name, value] : manifest.members())
            written.insert(name);
        spelled.insert(manifest.find("prefetch_kind")->asString());
        spelled.insert(
            manifest.find("predictor")->find("pht_indexing")->asString());
    }
    for (const char *conditional :
         {"l2_cache", "l2_hit_cycles", "l2_miss_cycles", "victim_hit_cycles",
          "check_level", "checkpoint_interval", "sample_interval",
          "set_heatmap", "adaptive_selector", "adaptive_interval",
          "adaptive_seed", "adaptive_epsilon"}) {
        EXPECT_TRUE(written.count(conditional)) << conditional;
    }
    for (const char *name : {"none", "next-line", "target", "combined",
                             "stream", "gshare", "global", "pc", "local",
                             "combining"}) {
        EXPECT_TRUE(spelled.count(name)) << name;
    }

    // A member present while its write condition is off is still read.
    SimConfig parsed;
    std::string error;
    ASSERT_TRUE(readManifest(
        "{\"l2_enabled\":false,\"l2_hit_cycles\":9,\"l2_cache\":"
        "{\"ways\":8},\"victim_entries\":0,\"victim_hit_cycles\":3,"
        "\"check_level\":\"off\",\"checkpoint_interval\":77,"
        "\"sample_interval\":0,\"set_heatmap\":false,"
        "\"adaptive_selector\":\"static\",\"adaptive_epsilon\":0.5}",
        parsed, error))
        << error;
    EXPECT_FALSE(parsed.l2Enabled);
    EXPECT_EQ(parsed.l2HitCycles, 9u);
    EXPECT_EQ(parsed.l2Cache.ways, 8u);
    EXPECT_EQ(parsed.victimHitCycles, 3u);
    EXPECT_EQ(parsed.checkpointInterval, 77u);
    EXPECT_EQ(parsed.adaptiveSelector, SelectorKind::Static);
    EXPECT_EQ(parsed.adaptiveEpsilon, 0.5);

    // Enum spellings ignore case and surrounding spaces, and
    // prefetch_kind keeps the "nextline" alias; the manifest written
    // back uses the canonical spelling.
    ASSERT_TRUE(readManifest(
        "{\"prefetch_kind\":\" NextLine \","
        "\"predictor\":{\"pht_indexing\":\"GShare \"}}",
        parsed, error))
        << error;
    EXPECT_EQ(parsed.prefetchKind, PrefetchKind::NextLine);
    EXPECT_EQ(parsed.predictor.phtIndexing, PhtIndexing::Gshare);
    EXPECT_NE(toJson(parsed).dump().find("\"prefetch_kind\":\"next-line\""),
              std::string::npos);
}

TEST(Record, ManifestReaderRefusesMalformedMembers)
{
    struct Case
    {
        const char *manifest;
        const char *path;  ///< the full path the refusal must name
        const char *why;   ///< the refusal kind
    };
    const Case cases[] = {
        // A wrong JSON kind.
        {R"({"issue_width":"4"})", "config.issue_width", "unsigned"},
        {R"({"l2_enabled":1})", "config.l2_enabled", "boolean"},
        {R"({"adaptive_epsilon":"0.1"})", "config.adaptive_epsilon",
         "number"},
        {R"({"policy":3})", "config.policy", "string"},
        {R"({"icache":{"ways":true}})", "config.icache.ways", "unsigned"},
        {R"({"l2_cache":{"size_bytes":-1}})", "config.l2_cache.size_bytes",
         "unsigned"},
        {R"({"predictor":{"ras_depth":1.5}})", "config.predictor.ras_depth",
         "unsigned"},
        {R"({"predictor":{"pht_indexing":2}})",
         "config.predictor.pht_indexing", "string"},
        // An unsigned value past the member's range.
        {R"({"miss_penalty_cycles":4294967296})",
         "config.miss_penalty_cycles", "range"},
        {R"({"icache":{"line_bytes":4294967296}})",
         "config.icache.line_bytes", "range"},
        {R"({"l2_cache":{"ways":4294967296}})", "config.l2_cache.ways",
         "range"},
        {R"({"predictor":{"btb_entries":4294967296}})",
         "config.predictor.btb_entries", "range"},
        // Past 2^64 a number is no longer an unsigned integer at all.
        {R"({"run_seed":18446744073709551616})", "config.run_seed",
         "unsigned"},
        // An unknown enum spelling.
        {R"({"policy":"eager"})", "config.policy", "no known"},
        {R"({"prefetch_kind":"next_line"})", "config.prefetch_kind",
         "no known"},
        {R"({"check_level":"max"})", "config.check_level", "no known"},
        {R"({"adaptive_selector":"greedy"})", "config.adaptive_selector",
         "no known"},
        {R"({"predictor":{"pht_indexing":"tage"}})",
         "config.predictor.pht_indexing", "no known"},
        // A nested member that is not an object.
        {R"({"icache":8192})", "config.icache", "object"},
        {R"({"l2_cache":[]})", "config.l2_cache", "object"},
        {R"({"predictor":"gshare"})", "config.predictor", "object"},
        // An unknown member at any level.
        {R"({"bogus":1})", "config.bogus", "not a manifest member"},
        {R"({"icache":{"sets":64}})", "config.icache.sets",
         "not a manifest member"},
        {R"({"l2_cache":{"size":1}})", "config.l2_cache.size",
         "not a manifest member"},
        {R"({"predictor":{"bht_entries":1}})",
         "config.predictor.bht_entries", "not a manifest member"},
        // A manifest that is not an object.
        {"[]", "config", "object"},
        {"7", "config", "object"},
        {"null", "config", "object"},
    };
    for (const Case &c : cases) {
        SimConfig out;
        out.runSeed = 99; // a refusal leaves the output untouched
        std::string error;
        EXPECT_FALSE(readManifest(c.manifest, out, error)) << c.manifest;
        EXPECT_EQ(error.substr(0, std::strlen(c.path) + 1),
                  std::string(c.path) + " ")
            << c.manifest << " -> " << error;
        EXPECT_NE(error.find(c.why), std::string::npos)
            << c.manifest << " -> " << error;
        EXPECT_EQ(out.runSeed, 99u);
    }
}

TEST(Record, JsonlWriterRoundTrip)
{
    std::string path = test::tempPath("records.jsonl");
    JsonValue first = makeRunRecord(sampleResults(), sampleConfig());
    SimResults other = sampleResults();
    other.workload = "li";
    other.instructions = 55'555;
    JsonValue second = makeRunRecord(other, sampleConfig());
    {
        JsonlWriter writer(path);
        ASSERT_TRUE(writer.ok());
        writer.write(first);
        writer.write(second);
        EXPECT_EQ(writer.recordsWritten(), 2u);
    }
    std::vector<JsonValue> records;
    std::string error;
    ASSERT_TRUE(readJsonl(path, records, &error)) << error;
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0], first);
    EXPECT_EQ(records[1], second);
    std::remove(path.c_str());
}

TEST(Record, StatsTreeExport)
{
    // Every counter-table row reaches the record's counters as an
    // exact integer: distinct odd values past 2^53, which a detour
    // through double would round, survive the record's text form.
    SimResults results = sampleResults();
    uint64_t value = uint64_t{1} << 53;
    for (const CounterField &field : kCounterFields) {
        value += 2;
        results.*field.member = value + 1;
    }

    JsonValue record;
    ASSERT_TRUE(JsonValue::parse(
        makeRunRecord(results, sampleConfig()).dump(), record));
    const JsonValue &counters = member(record, "counters");
    for (const CounterField &field : kCounterFields) {
        const JsonValue &count = member(counters, field.key);
        ASSERT_TRUE(count.isUint()) << field.key;
        EXPECT_EQ(count.asUint(), results.*field.member) << field.key;
    }
}

TEST(ServeRecord, ResponseLineIsTheTreeDump)
{
    // The spliced wire line must equal the dump of the response tree
    // for every kind of echoed id, both cached values, and a key whose
    // text needs escaping.
    const JsonValue run = makeRunRecord(sampleResults(), sampleConfig());
    const std::string runJson = run.dump();
    const std::string key = "gcc:\"quoted\"\\\x01\xc3\xa9";
    const JsonValue ids[] = {
        JsonValue::null(),
        JsonValue::integer(0),
        JsonValue::integer(UINT64_MAX),
        JsonValue::number(-1.5),
        JsonValue::string("a\"b\\c"),
        JsonValue::boolean(true),
    };
    for (const JsonValue &id : ids) {
        for (bool cached : {false, true}) {
            EXPECT_EQ(makeServiceResponseLine(id, key, cached, runJson),
                      makeServiceResponse(id, key, cached, run).dump())
                << "id " << id.dump() << ", cached " << cached;
        }
    }
}
