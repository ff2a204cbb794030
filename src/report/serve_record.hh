/**
 * @file
 * Schema-v1 records spoken by the sweep service (DESIGN.md §15).
 *
 * Requests and responses are JSON Lines, one object per line:
 *
 *   request:  {"id":7, "benchmark":"gcc", "config":{...}}
 *   ok:       {"schema_version":1, "record":"response", "id":7,
 *              "status":"ok", "key":"gcc:abc...", "cached":true,
 *              "run":{...}}                       // schema-v1 run record
 *   error:    {"schema_version":1, "record":"response", "id":7,
 *              "status":"error", "key":"...",     // omitted when unknown
 *              "error":{"type":"overloaded", "message":"...",
 *                       "backoff_seconds":0.2,    // retry hint, optional
 *                       "attempts":3}}            // optional
 *
 * The "id" member is an opaque client echo (any scalar; null when the
 * request had none). The "run" member of an ok response is
 * byte-identical to the record a fresh serial runSimulation would
 * produce — the store's core contract.
 */

#ifndef SPECFETCH_REPORT_SERVE_RECORD_HH_
#define SPECFETCH_REPORT_SERVE_RECORD_HH_

#include <cstdint>
#include <string>
#include <string_view>

#include "report/json.hh"

namespace specfetch {

/** Why the service rejected or failed a request. */
enum class ServiceErrorType : uint8_t
{
    MalformedJson,    ///< the line is not a JSON object
    BadRequest,       ///< unknown member / bad benchmark / bad config
    Overloaded,       ///< admission queue full; request was shed
    DeadlineExceeded, ///< per-request deadline expired before a result
    RunFailed,        ///< all guarded attempts failed (see attempts)
    Poisoned,         ///< key quarantined after repeated failures
    StoreWriteFailed, ///< the run succeeded but could not be persisted
    ShuttingDown,     ///< the service is draining; resubmit elsewhere
};

/** Wire name ("malformed_json", "overloaded", ...). */
const char *toString(ServiceErrorType type);

/** One typed service error, ready to serialize. */
struct ServiceError
{
    ServiceErrorType type = ServiceErrorType::BadRequest;
    std::string message;
    /** Retry hint; serialized as "backoff_seconds" when > 0. */
    double backoffSeconds = 0.0;
    /** Guarded attempts consumed; serialized when > 0. */
    unsigned attempts = 0;
};

/**
 * Build an ok response. @p id is echoed verbatim; @p run is the
 * schema-v1 run record; @p cached is false only for the request whose
 * simulation produced it (a single-flight leader), and true when the
 * store already held it or the request rode a leader's simulation (a
 * rider waits for that simulation, yet answers true).
 */
JsonValue makeServiceResponse(const JsonValue &id, const std::string &key,
                              bool cached, const JsonValue &run);

/**
 * The wire line of that ok response (sans newline) around @p runJson,
 * a run record's dump(): makeServiceResponse(id, key, cached, null)
 * dumped, with the text spliced in place of the trailing null. The
 * line equals makeServiceResponse(id, key, cached, run).dump() without
 * parsing or copying a tree.
 */
std::string makeServiceResponseLine(const JsonValue &id,
                                    const std::string &key, bool cached,
                                    std::string_view runJson);

/**
 * Build an error response. @p key may be empty (unknown — e.g. the
 * request never parsed); it is omitted from the record then.
 */
JsonValue makeServiceErrorResponse(const JsonValue &id,
                                   const std::string &key,
                                   const ServiceError &error);

/**
 * Build the response to an `{"op":"stats"}` control request: an ok
 * response whose "stats" member carries the live telemetry body
 * (service counters + store stats + registry snapshot — the same
 * members a `metrics` record carries, minus the flusher framing).
 */
JsonValue makeServiceStatsResponse(const JsonValue &id,
                                   const JsonValue &stats);

} // namespace specfetch

#endif // SPECFETCH_REPORT_SERVE_RECORD_HH_
