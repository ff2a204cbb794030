#include "metrics/flusher.hh"

#include "util/logging.hh"

namespace specfetch {

MetricsFlusher::~MetricsFlusher()
{
    end();
}

bool
MetricsFlusher::begin(const Options &options, RecordFn build)
{
    std::lock_guard<std::mutex> lock(mutex);
    panic_if(running, "metrics flusher begun twice without end()");
    if (!options.filePath.empty()) {
        file.open(options.filePath,
                  std::ios::binary |
                      (truncated ? std::ios::app : std::ios::trunc));
        if (!file) {
            warn("cannot write '%s'", options.filePath.c_str());
            file.clear();
            return false;
        }
        truncated = true;
    }
    opts = options;
    buildRecord = std::move(build);
    seq = 0;
    stopping = false;
    running = true;
    started = std::chrono::steady_clock::now();
    if (opts.intervalSeconds > 0.0)
        heartbeat = std::thread([this] { heartbeatLoop(); });
    return true;
}

void
MetricsFlusher::heartbeatLoop()
{
    std::unique_lock<std::mutex> lock(mutex);
    auto interval = std::chrono::duration<double>(opts.intervalSeconds);
    while (!stopping) {
        if (wake.wait_for(lock, interval) == std::cv_status::timeout &&
            !stopping) {
            flushLocked(/*final=*/false);
        }
    }
}

void
MetricsFlusher::flushLocked(bool final)
{
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - started)
                         .count();
    writeLocked(buildRecord(seq++, elapsed, final));
}

void
MetricsFlusher::writeLocked(const JsonValue &record)
{
    if (!file.is_open())
        return;
    file << record.dump() << "\n";
    file.flush();
}

void
MetricsFlusher::emitRecord(const JsonValue &record)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (running)
        writeLocked(record);
}

void
MetricsFlusher::flush()
{
    std::lock_guard<std::mutex> lock(mutex);
    if (running)
        flushLocked(/*final=*/false);
}

void
MetricsFlusher::end()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!running)
            return;
        stopping = true;
    }
    wake.notify_all();
    if (heartbeat.joinable())
        heartbeat.join();
    std::lock_guard<std::mutex> lock(mutex);
    flushLocked(/*final=*/true);
    file.close();
    file.clear();
    running = false;
}

} // namespace specfetch
