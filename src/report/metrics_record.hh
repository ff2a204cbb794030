/**
 * @file
 * Schema-v1 `metrics` records (DESIGN.md §16): the serialized form of
 * a MetricsRegistry snapshot, emitted periodically by the daemon's
 * --metrics-out flusher and embedded verbatim in `"op":"stats"`
 * responses. One record per line:
 *
 *   {"schema_version":1,"record":"metrics","label":"sweep_serve",
 *    "seq":3,"elapsed_seconds":6.1,"final":false,
 *    "service":{"requests":41,"accepted":38,...,"conserved":true},
 *    "store":{"records":130,"segments_loaded":1,...},
 *    "counters":{"socket.bytes_read":51234,...},
 *    "gauges":{"store.tail_bytes":8192,...},
 *    "histograms":{"service.execute_us.executed":
 *        {"count":30,"sum_us":912345,
 *         "buckets":[[16384,2],[18432,11],...]}}}
 *
 * Histogram buckets serialize as [lower_bound, count] pairs of the
 * log-linear grid (metrics/metrics.hh); a bucket spans from its label
 * to just below the next grid point. The "service" member must
 * satisfy the conservation invariant
 *
 *   accepted == hits + executed + deduped + shed + expired
 *               + poisoned + failed + rejected
 *
 * at every snapshot, not only the final one; tools/validate_metrics.py
 * re-checks it on every record.
 */

#ifndef SPECFETCH_REPORT_METRICS_RECORD_HH_
#define SPECFETCH_REPORT_METRICS_RECORD_HH_

#include <cstdint>
#include <string>

#include "metrics/metrics.hh"
#include "report/json.hh"

namespace specfetch {

/** Serialize one folded histogram ({"count","sum_us","buckets"}). */
JsonValue toJson(const HistogramSnapshot &snapshot);

/** Set the "counters"/"gauges"/"histograms" members on @p row. */
void setMetricsMembers(JsonValue &row, const MetricsSnapshot &snapshot);

/**
 * Build one complete metrics record. @p service and @p store are
 * pre-built member objects (the service owns their schema);
 * @p snapshot supplies counters/gauges/histograms.
 */
JsonValue makeMetricsRecord(const std::string &label, uint64_t seq,
                            double elapsedSeconds, bool final,
                            const JsonValue &service,
                            const JsonValue &store,
                            const MetricsSnapshot &snapshot);

} // namespace specfetch

#endif // SPECFETCH_REPORT_METRICS_RECORD_HH_
