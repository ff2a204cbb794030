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
    if (options.filePath.empty())
        return false;
    file.open(options.filePath, std::ios::binary | std::ios::trunc);
    if (!file) {
        warn("cannot write metrics file '%s'",
             options.filePath.c_str());
        return false;
    }
    opts = options;
    builder = std::move(build);
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
    JsonValue record = builder(seq++, elapsed, final);
    file << record.dump() << "\n";
    file.flush();
}

void
MetricsFlusher::emitRecord(const JsonValue &record)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (!running)
        return;
    file << record.dump() << "\n";
    file.flush();
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
