#include "report/serve_record.hh"

#include "report/record.hh"
#include "util/logging.hh"

namespace specfetch {

namespace {

JsonValue
responseShell(const JsonValue &id, const char *status)
{
    JsonValue response = JsonValue::object();
    response.set("schema_version", JsonValue::integer(kReportSchemaVersion))
        .set("record", JsonValue::string("response"))
        .set("id", id)
        .set("status", JsonValue::string(status));
    return response;
}

} // namespace

const char *
toString(ServiceErrorType type)
{
    switch (type) {
      case ServiceErrorType::MalformedJson:    return "malformed_json";
      case ServiceErrorType::BadRequest:       return "bad_request";
      case ServiceErrorType::Overloaded:       return "overloaded";
      case ServiceErrorType::DeadlineExceeded: return "deadline_exceeded";
      case ServiceErrorType::RunFailed:        return "run_failed";
      case ServiceErrorType::Poisoned:         return "poisoned";
      case ServiceErrorType::StoreWriteFailed: return "store_write_failed";
      case ServiceErrorType::ShuttingDown:     return "shutting_down";
    }
    return "?";
}

JsonValue
makeServiceResponse(const JsonValue &id, const std::string &key,
                    bool cached, const JsonValue &run)
{
    JsonValue response = responseShell(id, "ok");
    response.set("key", JsonValue::string(key))
        .set("cached", JsonValue::boolean(cached))
        .set("run", run);
    return response;
}

std::string
makeServiceResponseLine(const JsonValue &id, const std::string &key,
                        bool cached, std::string_view runJson)
{
    constexpr std::string_view kNull = "null";
    constexpr std::string_view kTail = "\"run\":null}";
    std::string line =
        makeServiceResponse(id, key, cached, JsonValue::null()).dump();
    panic_if(line.size() < kTail.size() ||
                 line.compare(line.size() - kTail.size(), kTail.size(),
                              kTail) != 0,
             "service response does not end in its run member: %s",
             line.c_str());
    // The record replaces the null before the closing brace.
    line.replace(line.size() - 1 - kNull.size(), kNull.size(), runJson);
    return line;
}

JsonValue
makeServiceStatsResponse(const JsonValue &id, const JsonValue &stats)
{
    JsonValue response = responseShell(id, "ok");
    response.set("stats", stats);
    return response;
}

JsonValue
makeServiceErrorResponse(const JsonValue &id, const std::string &key,
                         const ServiceError &error)
{
    JsonValue response = responseShell(id, "error");
    if (!key.empty())
        response.set("key", JsonValue::string(key));
    JsonValue detail = JsonValue::object();
    detail.set("type", JsonValue::string(toString(error.type)))
        .set("message", JsonValue::string(error.message));
    if (error.backoffSeconds > 0.0) {
        detail.set("backoff_seconds",
                   JsonValue::number(error.backoffSeconds));
    }
    if (error.attempts > 0)
        detail.set("attempts", JsonValue::integer(error.attempts));
    response.set("error", std::move(detail));
    return response;
}

} // namespace specfetch
