#include "report/record.hh"

#include <cstdint>
#include <limits>
#include <type_traits>

namespace specfetch {

namespace {

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

namespace {

/**
 * The run manifest, declared once as a visit order: each level's
 * members in record order, each with the condition under which it is
 * written. toJson(SimConfig) and configFromJson are its two visitors.
 * A visitor's member(key, field, written) takes a scalar, an enum, a
 * nested level (an object, visited by its own overload) or a callable
 * (a write-only echo); `written` defaults to true, and the reader
 * ignores it. A subsystem that is off leaves its members out, so
 * records of runs without it stay byte-identical to the schema-v1
 * goldens; auditing and observability never change results, adaptive
 * selection does.
 */
template <class Visitor>
void
visitManifest(Visitor &v, ICacheConfig &geometry)
{
    v.member("size_bytes", geometry.sizeBytes);
    v.member("line_bytes", geometry.lineBytes);
    v.member("ways", geometry.ways);
}

template <class Visitor>
void
visitManifest(Visitor &v, PredictorConfig &predictor)
{
    v.member("btb_entries", predictor.btbEntries);
    v.member("btb_ways", predictor.btbWays);
    v.member("pht_entries", predictor.phtEntries);
    v.member("pht_counter_bits", predictor.phtCounterBits);
    v.member("pht_indexing", predictor.phtIndexing);
    v.member("pht_local_entries", predictor.phtLocalEntries);
    v.member("ras_depth", predictor.rasDepth);
}

template <class Visitor>
void
visitManifest(Visitor &v, SimConfig &c)
{
    const bool audited = c.checkLevel != CheckLevel::Off;
    const bool adaptive = c.adaptiveSelector != SelectorKind::Off;
    const bool bandit = c.adaptiveSelector == SelectorKind::Bandit;
    v.member("policy", c.policy);
    v.member("issue_width", c.issueWidth);
    v.member("max_unresolved", c.maxUnresolved);
    v.member("decode_cycles", c.decodeCycles);
    v.member("resolve_cycles", c.resolveCycles);
    v.member("icache", c.icache);
    v.member("miss_penalty_cycles", c.missPenaltyCycles);
    v.member("memory_channels", c.memoryChannels);
    v.member("l2_enabled", c.l2Enabled);
    v.member("l2_cache", c.l2Cache, c.l2Enabled);
    v.member("l2_hit_cycles", c.l2HitCycles, c.l2Enabled);
    v.member("l2_miss_cycles", c.l2MissCycles, c.l2Enabled);
    v.member("victim_entries", c.victimEntries);
    v.member("victim_hit_cycles", c.victimHitCycles, c.victimEntries > 0);
    // The writer folds nextLinePrefetch in first (see toJson).
    v.member("prefetch_kind", c.prefetchKind);
    v.member("target_table_entries", c.targetTableEntries);
    v.member("predictor", c.predictor);
    v.member("instruction_budget", c.instructionBudget);
    v.member("warmup_instructions", c.warmupInstructions);
    v.member("run_seed", c.runSeed);
    v.member("check_level", c.checkLevel, audited);
    v.member("checkpoint_interval", c.checkpointInterval, audited);
    v.member("sample_interval", c.sampleInterval, c.sampleInterval > 0);
    v.member("set_heatmap", c.setHeatmap, c.setHeatmap);
    v.member("adaptive_selector", c.adaptiveSelector, adaptive);
    v.member("adaptive_interval", c.adaptiveInterval, adaptive);
    v.member("adaptive_seed", c.adaptiveSeed, bandit);
    v.member("adaptive_epsilon", c.adaptiveEpsilon, bandit);
    v.member("description", [&c] { return c.describe(); });
}

/** Emits each member whose write condition holds. */
struct ManifestWriter
{
    JsonValue out = JsonValue::object();

    template <class T>
    void
    member(const char *key, T &&field, bool written = true)
    {
        using F = std::remove_cvref_t<T>;
        if (!written)
            return;
        if constexpr (std::is_invocable_v<F>) {
            out.set(key, JsonValue::string(field()));
        } else if constexpr (std::is_class_v<F>) {
            ManifestWriter inner;
            visitManifest(inner, field);
            out.set(key, std::move(inner.out));
        } else if constexpr (std::is_enum_v<F>) {
            out.set(key, JsonValue::string(toString(field)));
        } else if constexpr (std::is_same_v<F, bool>) {
            out.set(key, JsonValue::boolean(field));
        } else if constexpr (std::is_same_v<F, double>) {
            out.set(key, JsonValue::number(field));
        } else {
            out.set(key, JsonValue::integer(field));
        }
    }
};

/** Answers whether a level declares @p key. */
struct KeyProbe
{
    const std::string &key;
    bool found = false;

    template <class... Rest>
    void
    member(const char *name, Rest &&...)
    {
        found = found || key == name;
    }
};

/** The parser beside each manifest enum's type. */
template <class E>
bool
parseName(const std::string &text, E &out)
{
    if constexpr (std::is_same_v<E, FetchPolicy>)
        return parsePolicy(text, out);
    else if constexpr (std::is_same_v<E, PhtIndexing>)
        return parsePhtIndexing(text, out);
    else if constexpr (std::is_same_v<E, PrefetchKind>)
        return parsePrefetchKind(text, out);
    else if constexpr (std::is_same_v<E, CheckLevel>)
        return parseCheckLevel(text, out);
    else
        return parseSelectorKind(text, out);
}

/**
 * The strict reader of one manifest level. It reads every member
 * present and keeps the first refusal, naming the member's full path:
 * a wrong JSON kind, an unsigned value past the field's range, an
 * unknown enum spelling, a nested member that is not an object, or a
 * member the level does not declare. It counts the members it takes
 * and looks for an undeclared one only when the count falls short, so
 * a well-formed manifest costs no allocation per member.
 */
struct ManifestReader
{
    const JsonValue &level;
    const char *name;
    const ManifestReader *parent;
    std::string &error;
    size_t taken = 0;

    template <class Level>
    void
    read(Level &fields)
    {
        visitManifest(*this, fields);
        if (taken == level.members().size())
            return;
        for (const auto &[key, value] : level.members()) {
            KeyProbe probe{key};
            visitManifest(probe, fields);
            if (!probe.found)
                return fail(key.c_str(), "is not a manifest member");
        }
    }

    template <class T>
    void
    member(const char *key, T &&field, bool = true)
    {
        using F = std::remove_cvref_t<T>;
        const JsonValue *value = level.find(key);
        if (!value)
            return;
        ++taken;
        if constexpr (std::is_invocable_v<F>) {
            // A derived echo: accepted, never parsed.
        } else if constexpr (std::is_class_v<F>) {
            if (!value->isObject())
                fail(key, "must be an object");
            else
                ManifestReader{*value, key, this, error}.read(field);
        } else if constexpr (std::is_enum_v<F>) {
            if (!value->isString())
                fail(key, "must be a string");
            else if (!parseName(value->asString(), field))
                fail(key, "names no known value");
        } else if constexpr (std::is_same_v<F, bool>) {
            if (!value->isBool())
                fail(key, "must be a boolean");
            else
                field = value->asBool();
        } else if constexpr (std::is_same_v<F, double>) {
            if (!value->isNumber())
                fail(key, "must be a number");
            else
                field = value->asDouble();
        } else if (!value->isUint()) {
            fail(key, "must be an unsigned integer");
        } else if (value->asUint() > std::numeric_limits<F>::max()) {
            fail(key, "is out of range");
        } else {
            field = static_cast<F>(value->asUint());
        }
    }

    std::string
    path(const char *key) const
    {
        return (parent ? parent->path(name) : std::string(name)) + "." + key;
    }

    void
    fail(const char *key, const char *why)
    {
        if (error.empty())
            error = path(key) + " " + why;
    }
};

} // namespace

JsonValue
toJson(const SimConfig &config)
{
    // The manifest carries the effective mechanism, so a reader lands
    // it solely on prefetchKind.
    SimConfig folded = config;
    folded.prefetchKind = config.effectivePrefetchKind();
    folded.nextLinePrefetch = false;
    ManifestWriter writer;
    visitManifest(writer, folded);
    return std::move(writer.out);
}

bool
configFromJson(const JsonValue &manifest, SimConfig &out, std::string *error)
{
    std::string why;
    SimConfig config;
    if (!manifest.isObject())
        why = "config must be an object";
    else
        ManifestReader{manifest, "config", nullptr, why}.read(config);
    if (!why.empty()) {
        if (error)
            *error = why;
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
    JsonValue record = JsonValue::object();
    record.set("schema_version", JsonValue::integer(kReportSchemaVersion))
        .set("record", JsonValue::string("run"))
        .set("workload", JsonValue::string(results.workload))
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

} // namespace specfetch
