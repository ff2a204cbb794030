/**
 * @file
 * The machine-readable results schema: one versioned JSON record per
 * simulation run, carrying the full configuration manifest, every raw
 * counter, the derived ISPI decomposition, optional Table-4 miss
 * classification, and optional wall-clock timing.
 *
 * Record layout (schema version 1, JSON Lines — one record per line):
 *
 *   {"schema_version":1, "record":"run",
 *    "workload":"gcc", "policy":"Resume", "prefetch":"none",
 *    "config":{...},           // full SimConfig manifest
 *    "counters":{...},         // exact integers, incl. penalty slots
 *    "derived":{...},          // ISPI components, rates, accuracy
 *    "classification":{...},   // optional: Table-4 taxonomy
 *    "timing":{...}}           // optional: wall-clock seconds
 *
 * Golden-file tests compare records *without* the timing member (the
 * only nondeterministic part); everything else is reproducible
 * bit-exactly for a given config and seed.
 */

#ifndef SPECFETCH_REPORT_RECORD_HH_
#define SPECFETCH_REPORT_RECORD_HH_

#include <string>
#include <vector>

#include "core/config.hh"
#include "core/miss_classifier.hh"
#include "core/results.hh"
#include "report/json.hh"

namespace specfetch {

/** Bump when the record layout changes incompatibly. */
constexpr uint64_t kReportSchemaVersion = 1;

/** Wall-clock attribution for one run inside a sweep. */
struct RunTiming
{
    /** This run's simulation time. */
    double runSeconds = 0.0;
    /** The sweep's shared workload-construction stage. */
    double workloadBuildSeconds = 0.0;
    /** The sweep's shared correct-path snapshot-record stage
     *  (trace/snapshot.hh record-once/replay-many). */
    double snapshotRecordSeconds = 0.0;
    /** The whole sweep, end to end. */
    double sweepTotalSeconds = 0.0;
};

/** Configuration manifest (every knob that defines the machine/run).
 *  Its members are declared once, in record.cc's visitManifest. */
JsonValue toJson(const SimConfig &config);

/**
 * Parse a configuration manifest produced by toJson(SimConfig) back
 * into a SimConfig. Strict by design — an unknown member, a wrong
 * JSON kind, an out-of-range value or an unknown enum spelling fails
 * with @p error naming the member's full path (config.icache.ways) —
 * so a service can reject a request it does not fully understand
 * instead of silently simulating something else. Members absent from
 * the manifest keep their defaults, mirroring the serializer's
 * omit-when-disabled convention; a member present while its write
 * condition is off is still read; the "description" echo is ignored.
 * For any manifest the serializer emitted, toJson(parsed manifest)
 * reproduces it byte-for-byte.
 */
bool configFromJson(const JsonValue &manifest, SimConfig &out,
                    std::string *error = nullptr);

/** Set one integer member per counter-table row on @p out, keyed and
 *  ordered as in kCounterFields (run and epoch records share it). */
void setCounterMembers(JsonValue &out, const RunCounters &counters);

/** Lost slots per penalty component, keyed by component name. */
JsonValue toJson(const PenaltyBreakdown &penalty);

/** Raw counters + derived metrics of one run (no manifest). */
JsonValue toJson(const SimResults &results);

/** Table-4 classification block. */
JsonValue toJson(const Classification &classification);

/**
 * Build one complete schema-v1 "run" record. @p timing and
 * @p classification are optional (omitted when null).
 */
JsonValue makeRunRecord(const SimResults &results, const SimConfig &config,
                        const RunTiming *timing = nullptr,
                        const Classification *classification = nullptr);

} // namespace specfetch

#endif // SPECFETCH_REPORT_RECORD_HH_
