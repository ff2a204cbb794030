/**
 * @file
 * Sweep progress heartbeat (DESIGN.md §11).
 *
 * A 130-run sweep can spend minutes between its first line
 * of output and BENCH_results.json. ProgressReporter makes that window
 * observable: worker threads bump atomic counters (completed,
 * resumed-from-store, retried, quarantined) and a heartbeat thread
 * periodically renders them — a human line on stderr and/or a
 * schema-v1 `progress` JSONL row to a file — with an ETA extrapolated
 * from throughput so far.
 *
 * Progress output carries wall-clock content and therefore never goes
 * anywhere near result records; like the trace sink it is a process
 * global with a relaxed-atomic enabled check, so the sweep paths cost
 * one load per run event when reporting is off.
 */

#ifndef SPECFETCH_OBS_PROGRESS_HH_
#define SPECFETCH_OBS_PROGRESS_HH_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace specfetch {

class JsonValue;

/** Process-wide heartbeat over a sweep's run counters. */
class ProgressReporter
{
  public:
    struct Options
    {
        bool toStderr = false;       ///< human line on stderr
        std::string filePath;        ///< JSONL sink (empty = none)
        double intervalSeconds = 2.0;
        /** Record name of each JSONL row; the sweep service reuses
         *  the heartbeat machinery for its "health" records. */
        std::string recordName = "progress";
        /** Optional hook appending caller members (queue depth, store
         *  size, ...) to every JSONL row. Runs with the reporter lock
         *  held — keep it cheap and non-blocking. */
        std::function<void(JsonValue &row)> extraMembers;
    };

    static ProgressReporter &global();

    /**
     * Arm the reporter for a sweep of @p totalRuns runs and start the
     * heartbeat thread. @p label names the sweep in output.
     */
    void begin(const Options &options, uint64_t totalRuns,
               const std::string &label);

    bool
    enabled() const
    {
        return isEnabled.load(std::memory_order_relaxed);
    }

    /** @name Worker-thread events (atomic, contention-free) @{ */
    void
    runCompleted()
    {
        if (enabled())
            completed.fetch_add(1, std::memory_order_relaxed);
    }

    /** A run satisfied from the result store without simulating. */
    void
    runResumed()
    {
        if (enabled()) {
            completed.fetch_add(1, std::memory_order_relaxed);
            resumed.fetch_add(1, std::memory_order_relaxed);
        }
    }

    void
    runRetried()
    {
        if (enabled())
            retried.fetch_add(1, std::memory_order_relaxed);
    }

    void
    runQuarantined()
    {
        if (enabled())
            quarantined.fetch_add(1, std::memory_order_relaxed);
    }
    /** @} */

    /** Emit the final summary, stop the heartbeat, close the file. */
    void end();

  private:
    ProgressReporter() = default;

    void heartbeatLoop();
    /** Render one snapshot to the armed sinks. @p final marks the
     *  closing line. Caller holds the mutex. */
    void emitLocked(bool final);

    std::atomic<bool> isEnabled{false};
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> resumed{0};
    std::atomic<uint64_t> retried{0};
    std::atomic<uint64_t> quarantined{0};

    std::mutex mutex;
    std::condition_variable wake;
    bool stopping = false;
    std::thread heartbeat;
    Options opts;
    uint64_t total = 0;
    std::string sweepLabel;
    /** Whether some begin() already truncated the progress file (later
     *  sweeps of the same process append to it). */
    bool truncated = false;
    std::ofstream file;
    std::chrono::steady_clock::time_point started;
};

} // namespace specfetch

#endif // SPECFETCH_OBS_PROGRESS_HH_
