#include "serve/request.hh"

#include <algorithm>

#include "report/record.hh"
#include "util/checksum.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"
#include "workload/registry.hh"

namespace specfetch {

namespace {

bool
reject(ServiceError &error, ServiceErrorType type,
       const std::string &message)
{
    error.type = type;
    error.message = message;
    return false;
}

} // namespace

std::string
sweepRunKey(const RunSpec &spec)
{
    // The manifest serialization is byte-deterministic (report/json),
    // so the digest is stable across processes and machines.
    return spec.benchmark + ":" + hexString(hash64(toJson(spec.config).dump()));
}

bool
parseServiceRequest(const std::string &line, ServiceRequest &out,
                    ServiceError &error)
{
    out = ServiceRequest{};
    error = ServiceError{};

    JsonValue root;
    std::string parseError;
    if (!JsonValue::parse(line, root, &parseError)) {
        return reject(error, ServiceErrorType::MalformedJson,
                      "request is not JSON: " + parseError);
    }
    if (!root.isObject()) {
        return reject(error, ServiceErrorType::MalformedJson,
                      "request must be a JSON object");
    }

    // Salvage the id before any rejection so error responses echo it.
    if (const JsonValue *id = root.find("id"))
        out.id = *id;

    const JsonValue *configManifest = nullptr;
    bool haveBenchmark = false;
    bool haveOp = false;
    for (const auto &[name, value] : root.members()) {
        if (name == "id") {
            // Already salvaged above.
        } else if (name == "op") {
            if (!value.isString() || value.asString() != "stats") {
                return reject(error, ServiceErrorType::BadRequest,
                              "unknown op (only \"stats\" is supported)");
            }
            haveOp = true;
        } else if (name == "benchmark") {
            if (!value.isString()) {
                return reject(error, ServiceErrorType::BadRequest,
                              "benchmark must be a string");
            }
            out.benchmark = value.asString();
            haveBenchmark = true;
        } else if (name == "config") {
            configManifest = &value;
        } else {
            return reject(error, ServiceErrorType::BadRequest,
                          "unknown request member '" + name + "'");
        }
    }
    if (haveOp) {
        if (haveBenchmark || configManifest) {
            return reject(error, ServiceErrorType::BadRequest,
                          "an op request takes no benchmark/config");
        }
        out.statsOp = true;
        return true;
    }
    if (!haveBenchmark) {
        return reject(error, ServiceErrorType::BadRequest,
                      "request lacks a benchmark");
    }
    const std::vector<std::string> &names = benchmarkNames();
    if (std::find(names.begin(), names.end(), out.benchmark) ==
        names.end()) {
        return reject(error, ServiceErrorType::BadRequest,
                      "unknown benchmark '" + out.benchmark + "'");
    }
    if (configManifest) {
        std::string configError;
        if (!configFromJson(*configManifest, out.config, &configError)) {
            return reject(error, ServiceErrorType::BadRequest,
                          configError);
        }
    }
    // Semantic validation normally fatal()s; behind the boundary it
    // throws instead and becomes a typed rejection.
    try {
        ScopedThrowOnError boundary;
        out.config.validate();
    } catch (const SimulationError &e) {
        return reject(error, ServiceErrorType::BadRequest,
                      std::string("invalid configuration: ") + e.what());
    }
    out.key = sweepRunKey(RunSpec{out.benchmark, out.config});
    return true;
}

} // namespace specfetch
