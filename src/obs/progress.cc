#include "obs/progress.hh"

#include <cstdio>

#include "report/json.hh"
#include "report/record.hh"
#include "util/logging.hh"

namespace specfetch {

ProgressReporter &
ProgressReporter::global()
{
    // SPECFETCH-ALLOW(shared-state): Meyers singleton; the reporter guards its state with atomics and its heartbeat's mutex
    static ProgressReporter reporter;
    return reporter;
}

void
ProgressReporter::begin(const Options &options, uint64_t totalRuns,
                        const std::string &label)
{
    panic_if(isEnabled.load(std::memory_order_relaxed),
             "progress reporter begun twice without end()");
    toStderr = options.toStderr;
    total = totalRuns;
    sweepLabel = label;
    completed.store(0, std::memory_order_relaxed);
    resumed.store(0, std::memory_order_relaxed);
    retried.store(0, std::memory_order_relaxed);
    quarantined.store(0, std::memory_order_relaxed);
    isEnabled.store(true, std::memory_order_relaxed);
    MetricsFlusher::Options flusher;
    flusher.filePath = options.filePath;
    flusher.intervalSeconds = options.intervalSeconds;
    auto build = [this](uint64_t, double elapsedSeconds, bool final) {
        return row(elapsedSeconds, final);
    };
    if (!heartbeat.begin(flusher, build)) {
        // An unwritable progress file loses its rows, not the stderr
        // line.
        flusher.filePath.clear();
        heartbeat.begin(flusher, build);
    }
}

JsonValue
ProgressReporter::row(double elapsed, bool final) const
{
    uint64_t done = completed.load(std::memory_order_relaxed);
    uint64_t fromStore = resumed.load(std::memory_order_relaxed);
    uint64_t retries = retried.load(std::memory_order_relaxed);
    uint64_t bad = quarantined.load(std::memory_order_relaxed);
    // ETA extrapolates from throughput so far; store-resumed runs are
    // nearly free, so exclude them from the rate estimate when any
    // simulated run has finished.
    double eta = 0.0;
    uint64_t simulated = done - fromStore;
    uint64_t remaining = total > done ? total - done : 0;
    if (remaining > 0 && simulated > 0) {
        eta = elapsed / static_cast<double>(simulated)
            * static_cast<double>(remaining);
    }

    if (toStderr) {
        std::fprintf(stderr,
                     "[%s] %llu/%llu runs (%llu resumed, %llu retried, "
                     "%llu quarantined) elapsed %.1fs%s",
                     sweepLabel.c_str(),
                     static_cast<unsigned long long>(done),
                     static_cast<unsigned long long>(total),
                     static_cast<unsigned long long>(fromStore),
                     static_cast<unsigned long long>(retries),
                     static_cast<unsigned long long>(bad), elapsed,
                     final ? " done\n"
                           : detail::format(" eta %.1fs\n", eta).c_str());
    }
    JsonValue record = JsonValue::object();
    record.set("schema_version", JsonValue::integer(kReportSchemaVersion))
        .set("record", JsonValue::string("progress"))
        .set("sweep", JsonValue::string(sweepLabel))
        .set("completed", JsonValue::integer(done))
        .set("total", JsonValue::integer(total))
        .set("resumed", JsonValue::integer(fromStore))
        .set("retried", JsonValue::integer(retries))
        .set("quarantined", JsonValue::integer(bad))
        .set("elapsed_seconds", JsonValue::number(elapsed))
        .set("eta_seconds", JsonValue::number(eta))
        .set("final", JsonValue::boolean(final));
    return record;
}

void
ProgressReporter::end()
{
    if (!isEnabled.load(std::memory_order_relaxed))
        return;
    heartbeat.end();
    isEnabled.store(false, std::memory_order_relaxed);
}

} // namespace specfetch
