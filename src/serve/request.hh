/**
 * @file
 * Request validation and canonicalization for the sweep service
 * (DESIGN.md §15). One JSONL request line either parses into a fully
 * validated, canonical ServiceRequest — benchmark known, configuration
 * manifest strictly understood, semantic validation passed — or
 * yields a typed ServiceError. Nothing in between, and never a crash:
 * the service's front door must survive arbitrary bytes.
 */

#ifndef SPECFETCH_SERVE_REQUEST_HH_
#define SPECFETCH_SERVE_REQUEST_HH_

#include <string>

#include "core/config.hh"
#include "core/sweep.hh"
#include "report/json.hh"
#include "report/serve_record.hh"

namespace specfetch {

/**
 * Content-addressed identity of one run: benchmark name plus a hash
 * of the serialized configuration manifest. Stable across processes
 * and machines; two specs collide only if they would produce the
 * same results anyway. Keys the result store.
 */
std::string sweepRunKey(const RunSpec &spec);

/** One validated, canonicalized request. */
struct ServiceRequest
{
    /** Opaque client echo ("id" member); null when absent. */
    JsonValue id;
    /**
     * Control request (`{"op":"stats"}`): answered from the live
     * telemetry snapshot without touching the store or the queue.
     * benchmark/config/key are empty then.
     */
    bool statsOp = false;
    std::string benchmark;
    /** Canonical configuration (defaults + the request's manifest). */
    SimConfig config;
    /** Content address: sweepRunKey({benchmark, config}). */
    std::string key;
};

/**
 * Parse one request line. Accepted members: "id" (any value, echoed),
 * "benchmark" (required, must name a registered workload), "config"
 * (optional manifest, strict configFromJson) — or "id" plus
 * "op":"stats", the control request that asks for a metrics snapshot
 * (DESIGN.md §16; mixing "op" with run members is rejected). Unknown
 * members are rejected — a request the service does not fully
 * understand must not be silently simulated as something else. On
 * failure @p error is filled (MalformedJson or BadRequest) and
 * @p out.id still carries any id that could be salvaged, so the error
 * response can echo it.
 */
bool parseServiceRequest(const std::string &line, ServiceRequest &out,
                         ServiceError &error);

} // namespace specfetch

#endif // SPECFETCH_SERVE_REQUEST_HH_
