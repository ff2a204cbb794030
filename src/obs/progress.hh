/**
 * @file
 * Sweep progress heartbeat (DESIGN.md §11).
 *
 * A 130-run sweep can spend minutes between its first line
 * of output and BENCH_results.json. ProgressReporter makes that window
 * observable: worker threads bump atomic counters (completed,
 * resumed-from-store, retried, quarantined) and a MetricsFlusher
 * heartbeat periodically renders them — a human line on stderr and/or
 * a schema-v1 `progress` JSONL row to a file — with an ETA
 * extrapolated from throughput so far.
 *
 * Progress output carries wall-clock content and therefore never goes
 * anywhere near result records; like the trace sink it is a process
 * global with a relaxed-atomic enabled check, so the sweep paths cost
 * one load per run event when reporting is off.
 */

#ifndef SPECFETCH_OBS_PROGRESS_HH_
#define SPECFETCH_OBS_PROGRESS_HH_

#include <atomic>
#include <cstdint>
#include <string>

#include "metrics/flusher.hh"

namespace specfetch {

/** Process-wide heartbeat over a sweep's run counters. */
class ProgressReporter
{
  public:
    struct Options
    {
        bool toStderr = false;       ///< human line on stderr
        std::string filePath;        ///< JSONL sink (empty = none)
        double intervalSeconds = 2.0;
    };

    static ProgressReporter &global();

    /**
     * Arm the reporter for a sweep of @p totalRuns runs and start the
     * heartbeat. @p label names the sweep in output. The first sweep
     * of a process truncates the progress file; later ones append.
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

    /** One snapshot as a `progress` row, after printing its stderr
     *  line when armed. @p final marks the closing row. */
    JsonValue row(double elapsedSeconds, bool final) const;

    std::atomic<bool> isEnabled{false};
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> resumed{0};
    std::atomic<uint64_t> retried{0};
    std::atomic<uint64_t> quarantined{0};

    /** Set by begin() before the heartbeat starts. */
    bool toStderr = false;
    uint64_t total = 0;
    std::string sweepLabel;
    MetricsFlusher heartbeat;
};

} // namespace specfetch

#endif // SPECFETCH_OBS_PROGRESS_HH_
