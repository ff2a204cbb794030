#include "obs/progress.hh"

#include <cstdio>

#include "report/json.hh"
#include "report/record.hh"
#include "util/logging.hh"

namespace specfetch {

ProgressReporter &
ProgressReporter::global()
{
    // SPECFETCH-ALLOW(shared-state): Meyers singleton; the reporter guards its state with atomics and a mutex
    static ProgressReporter reporter;
    return reporter;
}

void
ProgressReporter::begin(const Options &options, uint64_t totalRuns,
                        const std::string &label)
{
    std::unique_lock<std::mutex> lock(mutex);
    panic_if(isEnabled.load(std::memory_order_relaxed),
             "progress reporter begun twice without end()");
    opts = options;
    total = totalRuns;
    sweepLabel = label;
    completed.store(0, std::memory_order_relaxed);
    resumed.store(0, std::memory_order_relaxed);
    retried.store(0, std::memory_order_relaxed);
    quarantined.store(0, std::memory_order_relaxed);
    stopping = false;
    started = std::chrono::steady_clock::now();
    if (!opts.filePath.empty()) {
        // First begin() of the process truncates; later sweeps of the
        // same harness append so no heartbeat rows are lost.
        auto mode = std::ios::binary |
            (truncated ? std::ios::app : std::ios::trunc);
        file.open(opts.filePath, mode);
        if (!file)
            warn("cannot write progress file '%s'", opts.filePath.c_str());
        truncated = true;
    }
    isEnabled.store(true, std::memory_order_relaxed);
    if (opts.intervalSeconds > 0.0)
        heartbeat = std::thread([this] { heartbeatLoop(); });
}

void
ProgressReporter::heartbeatLoop()
{
    std::unique_lock<std::mutex> lock(mutex);
    auto interval = std::chrono::duration<double>(opts.intervalSeconds);
    while (!stopping) {
        if (wake.wait_for(lock, interval) == std::cv_status::timeout && !stopping)
            emitLocked(/*final=*/false);
    }
}

void
ProgressReporter::emitLocked(bool final)
{
    uint64_t done = completed.load(std::memory_order_relaxed);
    uint64_t fromStore = resumed.load(std::memory_order_relaxed);
    uint64_t retries = retried.load(std::memory_order_relaxed);
    uint64_t bad = quarantined.load(std::memory_order_relaxed);
    double elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - started).count();
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

    if (opts.toStderr) {
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
    if (file) {
        JsonValue row = JsonValue::object();
        row.set("schema_version", JsonValue::integer(kReportSchemaVersion))
            .set("record", JsonValue::string(opts.recordName))
            .set("sweep", JsonValue::string(sweepLabel))
            .set("completed", JsonValue::integer(done))
            .set("total", JsonValue::integer(total))
            .set("resumed", JsonValue::integer(fromStore))
            .set("retried", JsonValue::integer(retries))
            .set("quarantined", JsonValue::integer(bad))
            .set("elapsed_seconds", JsonValue::number(elapsed))
            .set("eta_seconds", JsonValue::number(eta))
            .set("final", JsonValue::boolean(final));
        if (opts.extraMembers)
            opts.extraMembers(row);
        file << row.dump() << "\n";
        file.flush();
    }
}

void
ProgressReporter::end()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!isEnabled.load(std::memory_order_relaxed))
            return;
        stopping = true;
    }
    wake.notify_all();
    if (heartbeat.joinable())
        heartbeat.join();
    std::lock_guard<std::mutex> lock(mutex);
    emitLocked(/*final=*/true);
    if (file.is_open())
        file.close();
    file.clear();
    isEnabled.store(false, std::memory_order_relaxed);
}

} // namespace specfetch
