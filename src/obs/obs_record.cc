#include "obs/obs_record.hh"

#include <algorithm>

#include "report/record.hh"
#include "stats/histogram.hh"
#include "util/logging.hh"

namespace specfetch {

namespace {

JsonValue
recordShell(const char *kind, const SimResults &results,
            const SimConfig &config)
{
    JsonValue record = JsonValue::object();
    record.set("schema_version", JsonValue::integer(kReportSchemaVersion))
        .set("record", JsonValue::string(kind))
        .set("workload", JsonValue::string(results.workload))
        .set("policy", JsonValue::string(toString(results.policy)))
        .set("prefetch",
             JsonValue::string(toString(config.effectivePrefetchKind())))
        .set("run_seed", JsonValue::integer(config.runSeed));
    return record;
}

JsonValue
seriesJson(const std::vector<uint64_t> &values)
{
    JsonValue out = JsonValue::array();
    for (uint64_t value : values)
        out.push(JsonValue::integer(value));
    return out;
}

/** Distribution summary of one per-set series via stats/histogram. */
JsonValue
distributionJson(const std::vector<uint64_t> &values)
{
    uint64_t top = values.empty()
        ? 0
        : *std::max_element(values.begin(), values.end());
    constexpr size_t kBuckets = 16;
    uint64_t width = std::max<uint64_t>(1, (top + kBuckets) / kBuckets);
    Histogram histogram(kBuckets, width);
    for (uint64_t value : values)
        histogram.sample(value);

    JsonValue out = JsonValue::object();
    out.set("mean", JsonValue::number(histogram.mean()))
        .set("max", JsonValue::integer(histogram.maxValue()))
        .set("p50", JsonValue::integer(histogram.percentile(0.50)))
        .set("p90", JsonValue::integer(histogram.percentile(0.90)))
        .set("p99", JsonValue::integer(histogram.percentile(0.99)));
    return out;
}

} // namespace

JsonValue
toJson(const EpochRecord &epoch)
{
    JsonValue components = JsonValue::object();
    for (PenaltyKind kind : allPenaltyKinds())
        components.set(toString(kind), JsonValue::number(epoch.ispiOf(kind)));

    JsonValue derived = JsonValue::object();
    derived.set("ispi", JsonValue::number(epoch.ispi()))
        .set("ispi_components", std::move(components))
        .set("miss_rate_percent", JsonValue::number(epoch.missRatePercent()))
        .set("cond_accuracy", JsonValue::number(epoch.condAccuracy()))
        .set("bus_wait_fraction",
             JsonValue::number(epoch.busWaitFraction()));

    JsonValue out = JsonValue::object();
    out.set("epoch", JsonValue::integer(epoch.epoch))
        .set("first_instruction", JsonValue::integer(epoch.firstInstruction))
        .set("last_instruction", JsonValue::integer(epoch.lastInstruction))
        .set("slots", JsonValue::integer(epoch.slots))
        .set("penalty_slots", toJson(epoch.penalty));
    setCounterMembers(out, epoch);
    out.set("memory_transactions",
            JsonValue::integer(epoch.memoryTransactions()))
        .set("partial", JsonValue::boolean(epoch.partial))
        .set("derived", std::move(derived));
    return out;
}

JsonValue
toJson(const SetHeatmap &heatmap)
{
    JsonValue geometry = JsonValue::object();
    geometry
        .set("size_bytes", JsonValue::integer(heatmap.geometry().sizeBytes))
        .set("line_bytes", JsonValue::integer(heatmap.geometry().lineBytes))
        .set("ways", JsonValue::integer(heatmap.geometry().ways))
        .set("sets", JsonValue::integer(heatmap.sets()));

    JsonValue sets = JsonValue::object();
    sets.set("demand_accesses", seriesJson(heatmap.demandAccesses()))
        .set("demand_misses", seriesJson(heatmap.demandMisses()))
        .set("correct_fills", seriesJson(heatmap.correctFills()))
        .set("wrong_accesses", seriesJson(heatmap.wrongAccesses()))
        .set("wrong_misses", seriesJson(heatmap.wrongMisses()))
        .set("wrong_fills", seriesJson(heatmap.wrongFills()))
        .set("evictions_by_correct",
             seriesJson(heatmap.evictionsByCorrect()))
        .set("evictions_by_wrong", seriesJson(heatmap.evictionsByWrong()));

    JsonValue summary = JsonValue::object();
    summary.set("demand_misses_per_set",
                distributionJson(heatmap.demandMisses()))
        .set("wrong_fills_per_set", distributionJson(heatmap.wrongFills()))
        .set("evictions_by_wrong_per_set",
             distributionJson(heatmap.evictionsByWrong()));

    JsonValue out = JsonValue::object();
    out.set("geometry", std::move(geometry))
        .set("sets", std::move(sets))
        .set("summary", std::move(summary));
    return out;
}

JsonValue
makeTimeseriesRecord(const RunObservations &observations,
                     const SimResults &results, const SimConfig &config)
{
    panic_if(observations.epochs.empty(),
             "timeseries record needs at least one epoch");
    JsonValue record = recordShell("timeseries", results, config);
    record.set("sample_interval",
               JsonValue::integer(observations.sampleInterval));
    JsonValue epochs = JsonValue::array();
    for (const EpochRecord &epoch : observations.epochs)
        epochs.push(toJson(epoch));
    record.set("epochs", std::move(epochs));
    return record;
}

JsonValue
makeHeatmapRecord(const SetHeatmap &heatmap, const SimResults &results,
                  const SimConfig &config)
{
    JsonValue record = recordShell("heatmap", results, config);
    record.set("heatmap", toJson(heatmap));
    return record;
}

} // namespace specfetch
