/**
 * @file
 * The periodic JSONL heartbeat (DESIGN.md §16.3): the --metrics-out
 * side of the telemetry subsystem and the thread behind the sweep
 * progress heartbeat (obs/progress.hh). Owns a heartbeat thread that
 * asks a caller-supplied function for one schema-v1 record per
 * interval and appends it to a file; end() emits one final record
 * (final=true) so consumers always see a complete last snapshot.
 * Without a file it still ticks, for a record function whose work is
 * a side effect (progress's stderr line). A plain owned object: a
 * daemon owns exactly one.
 */

#ifndef SPECFETCH_METRICS_FLUSHER_HH_
#define SPECFETCH_METRICS_FLUSHER_HH_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "report/json.hh"

namespace specfetch {

class MetricsFlusher
{
  public:
    struct Options
    {
        /** JSONL destination; empty builds records without writing
         *  them. The first begin() of a flusher truncates its file and
         *  later ones append, so a flusher begun again keeps its
         *  earlier rows. */
        std::string filePath;
        /** Flush period; <= 0 writes only the final record. */
        double intervalSeconds = 2.0;
    };

    /**
     * Builds one record. @p seq counts emitted records from 0,
     * @p elapsedSeconds is time since begin(), @p final is true only
     * for the end() record.
     */
    using RecordFn = std::function<JsonValue(
        uint64_t seq, double elapsedSeconds, bool final)>;

    MetricsFlusher() = default;
    ~MetricsFlusher();

    MetricsFlusher(const MetricsFlusher &) = delete;
    MetricsFlusher &operator=(const MetricsFlusher &) = delete;

    /** Open the file (if any) and start the heartbeat. Returns false
     *  (and stays disabled) when the file cannot be opened. */
    bool begin(const Options &options, RecordFn build);

    /** Emit one record immediately (e.g. a startup summary written
     *  through the same stream). No-op when disabled. */
    void emitRecord(const JsonValue &record);

    /** Write one record now, as the heartbeat would, so the file
     *  holds a snapshot before the first interval elapses. No-op when
     *  disabled. */
    void flush();

    /** Stop the heartbeat, write the final record, close the file.
     *  Safe to call twice or without begin(). */
    void end();

    bool enabled() const { return running; }

  private:
    void heartbeatLoop();
    void flushLocked(bool final);
    void writeLocked(const JsonValue &record);

    Options opts;
    RecordFn buildRecord;
    std::mutex mutex;
    std::condition_variable wake;
    std::thread heartbeat;
    std::ofstream file;
    std::chrono::steady_clock::time_point started;
    uint64_t seq = 0;
    bool running = false;
    bool stopping = false;
    /** Whether a begin() already truncated a file. */
    bool truncated = false;
};

} // namespace specfetch

#endif // SPECFETCH_METRICS_FLUSHER_HH_
