#include "report/record.hh"

#include <cstdint>

#include "cache/prefetch_unit.hh"
#include "util/string_utils.hh"

namespace specfetch {

namespace {

std::string
indexingName(PhtIndexing indexing)
{
    switch (indexing) {
      case PhtIndexing::Gshare:     return "gshare";
      case PhtIndexing::GlobalOnly: return "global";
      case PhtIndexing::PcOnly:     return "pc";
      case PhtIndexing::Local:      return "local";
      case PhtIndexing::Combining:  return "combining";
    }
    return "unknown";
}

JsonValue
countersJson(const SimResults &r)
{
    JsonValue counters = JsonValue::object();
    counters.set("instructions", JsonValue::integer(r.instructions))
        .set("final_slot",
             JsonValue::integer(static_cast<uint64_t>(r.finalSlot)));
    setCounterMembers(counters, r);
    counters
        .set("memory_transactions",
             JsonValue::integer(r.memoryTransactions()))
        .set("penalty_slots", toJson(r.penalty));
    return counters;
}

JsonValue
derivedJson(const SimResults &r)
{
    JsonValue components = JsonValue::object();
    for (PenaltyKind kind : allPenaltyKinds())
        components.set(toString(kind), JsonValue::number(r.ispiOf(kind)));

    JsonValue derived = JsonValue::object();
    derived.set("ispi", JsonValue::number(r.ispi()))
        .set("ispi_components", std::move(components))
        .set("miss_rate_percent", JsonValue::number(r.missRatePercent()))
        .set("wrong_miss_rate_percent",
             JsonValue::number(r.wrongMissRatePercent()))
        .set("cond_accuracy", JsonValue::number(r.condAccuracy()))
        .set("pht_mispredict_ispi",
             JsonValue::number(r.phtMispredictIspi()))
        .set("btb_misfetch_ispi", JsonValue::number(r.btbMisfetchIspi()))
        .set("btb_mispredict_ispi",
             JsonValue::number(r.btbMispredictIspi()));
    return derived;
}

JsonValue
recordShell(const char *kind)
{
    JsonValue record = JsonValue::object();
    record.set("schema_version", JsonValue::integer(kReportSchemaVersion))
        .set("record", JsonValue::string(kind));
    return record;
}

} // namespace

void
setCounterMembers(JsonValue &out, const RunCounters &counters)
{
    for (const CounterField &field : kCounterFields)
        out.set(field.key, JsonValue::integer(counters.*field.member));
}

JsonValue
toJson(const PenaltyBreakdown &penalty)
{
    JsonValue out = JsonValue::object();
    for (PenaltyKind kind : allPenaltyKinds())
        out.set(toString(kind), JsonValue::integer(penalty.slots(kind)));
    return out;
}

JsonValue
toJson(const SimConfig &config)
{
    JsonValue icache = JsonValue::object();
    icache.set("size_bytes", JsonValue::integer(config.icache.sizeBytes))
        .set("line_bytes", JsonValue::integer(config.icache.lineBytes))
        .set("ways", JsonValue::integer(config.icache.ways));

    JsonValue predictor = JsonValue::object();
    predictor
        .set("btb_entries", JsonValue::integer(config.predictor.btbEntries))
        .set("btb_ways", JsonValue::integer(config.predictor.btbWays))
        .set("pht_entries", JsonValue::integer(config.predictor.phtEntries))
        .set("pht_counter_bits",
             JsonValue::integer(config.predictor.phtCounterBits))
        .set("pht_indexing",
             JsonValue::string(indexingName(config.predictor.phtIndexing)))
        .set("pht_local_entries",
             JsonValue::integer(config.predictor.phtLocalEntries))
        .set("ras_depth", JsonValue::integer(config.predictor.rasDepth));

    JsonValue manifest = JsonValue::object();
    manifest.set("policy", JsonValue::string(toString(config.policy)))
        .set("issue_width", JsonValue::integer(config.issueWidth))
        .set("max_unresolved", JsonValue::integer(config.maxUnresolved))
        .set("decode_cycles", JsonValue::integer(config.decodeCycles))
        .set("resolve_cycles", JsonValue::integer(config.resolveCycles))
        .set("icache", std::move(icache))
        .set("miss_penalty_cycles",
             JsonValue::integer(config.missPenaltyCycles))
        .set("memory_channels", JsonValue::integer(config.memoryChannels))
        .set("l2_enabled", JsonValue::boolean(config.l2Enabled));
    // The L2 geometry and hit/miss latencies matter only when the L2
    // exists; they appear only then so records of single-level runs
    // stay byte-identical to schema v1 golden files.
    if (config.l2Enabled) {
        JsonValue l2 = JsonValue::object();
        l2.set("size_bytes", JsonValue::integer(config.l2Cache.sizeBytes))
            .set("line_bytes", JsonValue::integer(config.l2Cache.lineBytes))
            .set("ways", JsonValue::integer(config.l2Cache.ways));
        manifest.set("l2_cache", std::move(l2))
            .set("l2_hit_cycles", JsonValue::integer(config.l2HitCycles))
            .set("l2_miss_cycles", JsonValue::integer(config.l2MissCycles));
    }
    manifest.set("victim_entries", JsonValue::integer(config.victimEntries));
    if (config.victimEntries > 0) {
        manifest.set("victim_hit_cycles",
                     JsonValue::integer(config.victimHitCycles));
    }
    manifest
        .set("prefetch_kind",
             JsonValue::string(toString(config.effectivePrefetchKind())))
        .set("target_table_entries",
             JsonValue::integer(config.targetTableEntries))
        .set("predictor", std::move(predictor))
        .set("instruction_budget",
             JsonValue::integer(config.instructionBudget))
        .set("warmup_instructions",
             JsonValue::integer(config.warmupInstructions))
        .set("run_seed", JsonValue::integer(config.runSeed));
    // Auditing never changes results; the members appear only when
    // enabled so records of unaudited runs stay byte-identical to
    // schema v1 golden files.
    if (config.checkLevel != CheckLevel::Off) {
        manifest
            .set("check_level",
                 JsonValue::string(toString(config.checkLevel)))
            .set("checkpoint_interval",
                 JsonValue::integer(config.checkpointInterval));
    }
    // Observability likewise never changes results and its members
    // likewise appear only when armed.
    if (config.sampleInterval > 0) {
        manifest.set("sample_interval",
                     JsonValue::integer(config.sampleInterval));
    }
    if (config.setHeatmap)
        manifest.set("set_heatmap", JsonValue::boolean(true));
    // Adaptive selection *does* change results, but the members still
    // appear only when armed: every pre-adaptive record (and every
    // run with selection off) stays byte-identical to its golden.
    if (config.adaptiveSelector != SelectorKind::Off) {
        manifest
            .set("adaptive_selector",
                 JsonValue::string(toString(config.adaptiveSelector)))
            .set("adaptive_interval",
                 JsonValue::integer(config.adaptiveInterval));
        if (config.adaptiveSelector == SelectorKind::Bandit) {
            manifest
                .set("adaptive_seed",
                     JsonValue::integer(config.adaptiveSeed))
                .set("adaptive_epsilon",
                     JsonValue::number(config.adaptiveEpsilon));
        }
    }
    manifest.set("description", JsonValue::string(config.describe()));
    return manifest;
}

namespace {

bool
indexingFromName(const std::string &name, PhtIndexing &out)
{
    if (name == "gshare") {
        out = PhtIndexing::Gshare;
    } else if (name == "global") {
        out = PhtIndexing::GlobalOnly;
    } else if (name == "pc") {
        out = PhtIndexing::PcOnly;
    } else if (name == "local") {
        out = PhtIndexing::Local;
    } else if (name == "combining") {
        out = PhtIndexing::Combining;
    } else {
        return false;
    }
    return true;
}

bool
prefetchKindFromName(const std::string &name, PrefetchKind &out)
{
    for (PrefetchKind kind :
         {PrefetchKind::None, PrefetchKind::NextLine, PrefetchKind::Target,
          PrefetchKind::Combined, PrefetchKind::Stream}) {
        if (name == toString(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

/** Collects the first manifest-parse failure; later sets are no-ops. */
struct ParseFailure
{
    std::string message;
    bool failed = false;

    bool
    fail(const std::string &why)
    {
        if (!failed) {
            message = why;
            failed = true;
        }
        return false;
    }
};

bool
readUint(const JsonValue &value, const char *name, uint64_t &dst,
         ParseFailure &failure)
{
    if (!value.isUint()) {
        return failure.fail(std::string("config.") + name +
                            " must be an unsigned integer");
    }
    dst = value.asUint();
    return true;
}

bool
readUnsigned(const JsonValue &value, const char *name, unsigned &dst,
             ParseFailure &failure)
{
    uint64_t wide = 0;
    if (!readUint(value, name, wide, failure))
        return false;
    if (wide > UINT32_MAX) {
        return failure.fail(std::string("config.") + name +
                            " is out of range");
    }
    dst = static_cast<unsigned>(wide);
    return true;
}

bool
readBool(const JsonValue &value, const char *name, bool &dst,
         ParseFailure &failure)
{
    if (!value.isBool()) {
        return failure.fail(std::string("config.") + name +
                            " must be a boolean");
    }
    dst = value.asBool();
    return true;
}

bool
readCacheGeometry(const JsonValue &value, const char *name,
                  ICacheConfig &dst, ParseFailure &failure)
{
    if (!value.isObject()) {
        return failure.fail(std::string("config.") + name +
                            " must be an object");
    }
    for (const auto &[member, inner] : value.members()) {
        if (member == "size_bytes") {
            readUint(inner, "size_bytes", dst.sizeBytes, failure);
        } else if (member == "line_bytes") {
            readUnsigned(inner, "line_bytes", dst.lineBytes, failure);
        } else if (member == "ways") {
            readUnsigned(inner, "ways", dst.ways, failure);
        } else {
            failure.fail(std::string("config.") + name +
                         ": unknown member '" + member + "'");
        }
    }
    return !failure.failed;
}

bool
readPredictor(const JsonValue &value, PredictorConfig &dst,
              ParseFailure &failure)
{
    if (!value.isObject())
        return failure.fail("config.predictor must be an object");
    for (const auto &[member, inner] : value.members()) {
        if (member == "btb_entries") {
            readUnsigned(inner, "btb_entries", dst.btbEntries, failure);
        } else if (member == "btb_ways") {
            readUnsigned(inner, "btb_ways", dst.btbWays, failure);
        } else if (member == "pht_entries") {
            readUnsigned(inner, "pht_entries", dst.phtEntries, failure);
        } else if (member == "pht_counter_bits") {
            readUnsigned(inner, "pht_counter_bits", dst.phtCounterBits,
                         failure);
        } else if (member == "pht_indexing") {
            if (!inner.isString() ||
                !indexingFromName(inner.asString(), dst.phtIndexing)) {
                failure.fail("config.predictor.pht_indexing names no "
                             "known indexing scheme");
            }
        } else if (member == "pht_local_entries") {
            readUnsigned(inner, "pht_local_entries", dst.phtLocalEntries,
                         failure);
        } else if (member == "ras_depth") {
            readUnsigned(inner, "ras_depth", dst.rasDepth, failure);
        } else {
            failure.fail("config.predictor: unknown member '" + member +
                         "'");
        }
    }
    return !failure.failed;
}

} // namespace

bool
configFromJson(const JsonValue &manifest, SimConfig &out, std::string *error)
{
    ParseFailure failure;
    if (!manifest.isObject()) {
        failure.fail("config manifest is not an object");
        if (error)
            *error = failure.message;
        return false;
    }

    SimConfig config;
    for (const auto &[name, value] : manifest.members()) {
        if (name == "policy") {
            if (!value.isString() ||
                !parsePolicy(value.asString(), config.policy)) {
                failure.fail("config.policy names no known fetch policy");
            }
        } else if (name == "issue_width") {
            readUnsigned(value, "issue_width", config.issueWidth, failure);
        } else if (name == "max_unresolved") {
            readUnsigned(value, "max_unresolved", config.maxUnresolved,
                         failure);
        } else if (name == "decode_cycles") {
            readUnsigned(value, "decode_cycles", config.decodeCycles,
                         failure);
        } else if (name == "resolve_cycles") {
            readUnsigned(value, "resolve_cycles", config.resolveCycles,
                         failure);
        } else if (name == "icache") {
            readCacheGeometry(value, "icache", config.icache, failure);
        } else if (name == "miss_penalty_cycles") {
            readUnsigned(value, "miss_penalty_cycles",
                         config.missPenaltyCycles, failure);
        } else if (name == "memory_channels") {
            readUnsigned(value, "memory_channels", config.memoryChannels,
                         failure);
        } else if (name == "l2_enabled") {
            readBool(value, "l2_enabled", config.l2Enabled, failure);
        } else if (name == "l2_cache") {
            readCacheGeometry(value, "l2_cache", config.l2Cache, failure);
        } else if (name == "l2_hit_cycles") {
            readUnsigned(value, "l2_hit_cycles", config.l2HitCycles,
                         failure);
        } else if (name == "l2_miss_cycles") {
            readUnsigned(value, "l2_miss_cycles", config.l2MissCycles,
                         failure);
        } else if (name == "victim_entries") {
            readUnsigned(value, "victim_entries", config.victimEntries,
                         failure);
        } else if (name == "victim_hit_cycles") {
            readUnsigned(value, "victim_hit_cycles",
                         config.victimHitCycles, failure);
        } else if (name == "prefetch_kind") {
            // The serializer folds nextLinePrefetch into the effective
            // kind, so parsing lands solely on prefetchKind.
            config.nextLinePrefetch = false;
            if (!value.isString() ||
                !prefetchKindFromName(value.asString(),
                                      config.prefetchKind)) {
                failure.fail("config.prefetch_kind names no known "
                             "prefetch mechanism");
            }
        } else if (name == "target_table_entries") {
            readUnsigned(value, "target_table_entries",
                         config.targetTableEntries, failure);
        } else if (name == "predictor") {
            readPredictor(value, config.predictor, failure);
        } else if (name == "instruction_budget") {
            readUint(value, "instruction_budget", config.instructionBudget,
                     failure);
        } else if (name == "warmup_instructions") {
            readUint(value, "warmup_instructions",
                     config.warmupInstructions, failure);
        } else if (name == "run_seed") {
            readUint(value, "run_seed", config.runSeed, failure);
        } else if (name == "check_level") {
            if (!value.isString() ||
                !parseCheckLevel(value.asString(), config.checkLevel)) {
                failure.fail("config.check_level names no known audit "
                             "level");
            }
        } else if (name == "checkpoint_interval") {
            readUint(value, "checkpoint_interval",
                     config.checkpointInterval, failure);
        } else if (name == "sample_interval") {
            readUint(value, "sample_interval", config.sampleInterval,
                     failure);
        } else if (name == "set_heatmap") {
            readBool(value, "set_heatmap", config.setHeatmap, failure);
        } else if (name == "adaptive_selector") {
            if (!value.isString() ||
                !parseSelectorKind(value.asString(),
                                   config.adaptiveSelector)) {
                failure.fail("config.adaptive_selector names no known "
                             "selector");
            }
        } else if (name == "adaptive_interval") {
            readUint(value, "adaptive_interval", config.adaptiveInterval,
                     failure);
        } else if (name == "adaptive_seed") {
            readUint(value, "adaptive_seed", config.adaptiveSeed, failure);
        } else if (name == "adaptive_epsilon") {
            if (!value.isNumber()) {
                failure.fail("config.adaptive_epsilon must be a number");
            } else {
                config.adaptiveEpsilon = value.asDouble();
            }
        } else if (name == "description") {
            // A describe() echo; derived, never parsed.
        } else {
            failure.fail("config: unknown member '" + name + "'");
        }
    }

    if (failure.failed) {
        if (error)
            *error = failure.message;
        return false;
    }
    out = config;
    return true;
}

JsonValue
toJson(const SimResults &results)
{
    JsonValue out = JsonValue::object();
    out.set("workload", JsonValue::string(results.workload))
        .set("policy", JsonValue::string(toString(results.policy)))
        .set("prefetch", JsonValue::boolean(results.prefetch))
        .set("counters", countersJson(results))
        .set("derived", derivedJson(results));
    return out;
}

JsonValue
toJson(const Classification &c)
{
    JsonValue out = JsonValue::object();
    out.set("instructions", JsonValue::integer(c.instructions))
        .set("both_miss", JsonValue::integer(c.bothMiss))
        .set("spec_pollute", JsonValue::integer(c.specPollute))
        .set("spec_prefetch", JsonValue::integer(c.specPrefetch))
        .set("wrong_path", JsonValue::integer(c.wrongPath))
        .set("oracle_misses", JsonValue::integer(c.oracleMisses()))
        .set("optimistic_misses", JsonValue::integer(c.optimisticMisses()))
        .set("both_miss_percent", JsonValue::number(c.bothMissPercent()))
        .set("spec_pollute_percent",
             JsonValue::number(c.specPollutePercent()))
        .set("spec_prefetch_percent",
             JsonValue::number(c.specPrefetchPercent()))
        .set("wrong_path_percent", JsonValue::number(c.wrongPathPercent()))
        .set("traffic_ratio", JsonValue::number(c.trafficRatio()));
    return out;
}

JsonValue
makeRunRecord(const SimResults &results, const SimConfig &config,
              const RunTiming *timing, const Classification *classification)
{
    JsonValue record = recordShell("run");
    record.set("workload", JsonValue::string(results.workload))
        .set("policy", JsonValue::string(toString(results.policy)))
        .set("prefetch",
             JsonValue::string(toString(config.effectivePrefetchKind())))
        .set("config", toJson(config))
        .set("counters", countersJson(results))
        .set("derived", derivedJson(results));
    if (classification)
        record.set("classification", toJson(*classification));
    if (timing) {
        JsonValue t = JsonValue::object();
        t.set("run_seconds", JsonValue::number(timing->runSeconds))
            .set("workload_build_seconds",
                 JsonValue::number(timing->workloadBuildSeconds))
            .set("snapshot_record_seconds",
                 JsonValue::number(timing->snapshotRecordSeconds))
            .set("sweep_total_seconds",
                 JsonValue::number(timing->sweepTotalSeconds));
        record.set("timing", std::move(t));
    }
    return record;
}

JsonValue
makeClassificationRecord(const Classification &classification,
                         const SimConfig &config)
{
    JsonValue record = recordShell("classification");
    record.set("workload", JsonValue::string(classification.workload))
        .set("config", toJson(config))
        .set("classification", toJson(classification));
    return record;
}

namespace {

void
flattenInto(const JsonValue &value, const std::string &prefix,
            std::vector<std::pair<std::string, std::string>> &out)
{
    switch (value.kind()) {
      case JsonValue::Kind::Object:
        for (const auto &[name, member] : value.members()) {
            flattenInto(member,
                        prefix.empty() ? name : prefix + "." + name, out);
        }
        break;
      case JsonValue::Kind::Array:
        break; // records never carry arrays; nothing sensible in CSV
      case JsonValue::Kind::String:
        out.emplace_back(prefix, value.asString());
        break;
      case JsonValue::Kind::Bool:
        out.emplace_back(prefix, value.asBool() ? "true" : "false");
        break;
      case JsonValue::Kind::Null:
        out.emplace_back(prefix, "");
        break;
      default:
        out.emplace_back(prefix, value.dump());
        break;
    }
}

} // namespace

std::vector<std::pair<std::string, std::string>>
flattenRecord(const JsonValue &record)
{
    std::vector<std::pair<std::string, std::string>> out;
    flattenInto(record, "", out);
    return out;
}

} // namespace specfetch
