/**
 * @file
 * Parameter-sweep driver used by the benchmark harnesses: runs
 * (benchmark × configuration) grids, in parallel across hardware
 * threads, and returns results in submission order.
 */

#ifndef SPECFETCH_CORE_SWEEP_HH_
#define SPECFETCH_CORE_SWEEP_HH_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/miss_classifier.hh"
#include "core/results.hh"
#include "obs/observations.hh"

namespace specfetch {

class FaultInjector;

/** One run request. */
struct RunSpec
{
    std::string benchmark;
    SimConfig config;
};

/**
 * Wall-clock attribution of one sweep, split by stage. Filled by
 * runSweep when requested; feeds the run manifests of the report
 * layer. Timing never influences results — sweeps stay deterministic.
 */
struct SweepTiming
{
    /** Building the distinct workloads (shared across specs). */
    double workloadBuildSeconds = 0.0;
    /** Recording the distinct correct-path snapshots (shared across
     *  each benchmark's specs; see trace/snapshot.hh). */
    double snapshotRecordSeconds = 0.0;
    /** Classifying the distinct rows (SweepOptions::classifications;
     *  0 when none were asked for). */
    double classifySeconds = 0.0;
    /** Executing all runs (wall clock of the parallel stage). */
    double runSeconds = 0.0;
    /** The whole sweep, build + record + classify + runs. */
    double totalSeconds = 0.0;
    /** Per-spec simulation seconds, in submission order. */
    std::vector<double> perRunSeconds;
};

/**
 * Snapshots larger than this are not recorded (the runs fall back to
 * live execution): beyond it the packed stream's memory footprint
 * (up to ~1.6 bytes/instruction, about 100 MB at the cap) outweighs
 * the replay win.
 */
constexpr uint64_t kSweepSnapshotMaxInstructions = 64'000'000;

/**
 * One quarantined run: the sweep completed without it after
 * exhausting its retry budget, with enough context to reproduce the
 * failure standalone.
 */
struct SweepFailure
{
    /** Submission index within the sweep that quarantined it. */
    size_t index = 0;
    std::string benchmark;
    /** SimConfig::describe() of the failing configuration. */
    std::string config;
    /** What the last attempt died of (exception message). */
    std::string cause;
    /** Attempts consumed (== the guard's maxAttempts). */
    unsigned attempts = 0;
};

/** Per-run fault-tolerance policy (SweepOptions::guard). */
struct SweepGuard
{
    /** Attempts per run before quarantine (>= 1). */
    unsigned maxAttempts = 3;
    /** Base of the exponential retry backoff (seconds). */
    double backoffBaseSeconds = 0.05;
    /** Per-run wall-clock watchdog budget; 0 disables. */
    double runTimeoutSeconds = 0.0;
    /** Borrowed; may be null. Forces faults at chosen run indices. */
    const FaultInjector *injector = nullptr;
};

/** How runSweep executes a grid. Every member is optional. */
struct SweepOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    unsigned parallelism = 0;
    /**
     * Unset: each run executes bare, and a panic in any run aborts
     * the process. Set: each run executes behind an exception
     * boundary (panic/fatal throw instead of killing the process), an
     * optional cooperative watchdog, and a retry loop with
     * exponential backoff. The first attempt may replay the shared
     * correct-path snapshot (after verifying its content digest);
     * every retry degrades to the live executor. A run that exhausts
     * maxAttempts is quarantined into SweepOutcome::failures and the
     * sweep carries on. Completed runs are bit-identical either way.
     */
    std::optional<SweepGuard> guard;
    /** When non-null, filled with per-stage and per-spec wall-clock
     *  times. */
    SweepTiming *timing = nullptr;
    /**
     * When non-null, resized to specs.size() and filled with each
     * run's armed-collector output (src/obs), in submission order —
     * identical at any parallelism.
     */
    std::vector<RunObservations> *observations = nullptr;
    /**
     * When non-null, resized to specs.size() and filled with each
     * spec's Table-4 classification, in submission order. Specs with
     * the same benchmark and classificationConfig() form one row and
     * share one classification, computed once in the parallel
     * classify stage — after the snapshot record, before the first
     * run, so it is complete before any onRunComplete fires. A
     * classification is one more consumer of its (benchmark, run
     * seed) stream and replays the shared snapshot; in a guarded
     * sweep only after the snapshot's digest verifies, else live.
     */
    std::vector<Classification> *classifications = nullptr;
    /**
     * Invoked — possibly from a sweep worker thread, never twice for
     * one index — the moment a run completes. The store-backed grid
     * persists the run's record here, so a crash an instant later
     * loses nothing.
     */
    std::function<void(size_t index, const SimResults &results)>
        onRunComplete;
};

/** What a sweep produced: results plus the quarantined runs. */
struct SweepOutcome
{
    /** Indexed like specs; quarantined slots hold default results. */
    std::vector<SimResults> results;
    /** Quarantined runs, in submission order. */
    std::vector<SweepFailure> failures;
    /** completed[i] != 0 iff specs[i] produced results[i]. */
    std::vector<uint8_t> completed;

    bool allCompleted() const { return failures.empty(); }
};

/**
 * Execute every spec and return results in the same order.
 *
 * Shared work is hoisted out of the per-spec runs: each benchmark's
 * workload is built (or fetched from the process-wide store) once,
 * and each distinct (benchmark, run seed) correct-path stream that
 * more than one run or classification consumes is recorded once into
 * a TraceSnapshot and replayed by all of them — the identical stream,
 * so results are bit-identical to live execution at any parallelism.
 */
SweepOutcome runSweep(const std::vector<RunSpec> &specs,
                      const SweepOptions &options);

/** Unguarded runSweep: results only, a failing run aborts. */
inline std::vector<SimResults>
runSweep(const std::vector<RunSpec> &specs, unsigned parallelism = 0,
         SweepTiming *timing = nullptr,
         std::vector<RunObservations> *observations = nullptr)
{
    SweepOptions options;
    options.parallelism = parallelism;
    options.timing = timing;
    options.observations = observations;
    return runSweep(specs, options).results;
}

/**
 * Convenience grid: every listed benchmark under every policy with
 * the same base configuration. Results are ordered
 * benchmark-major, policy-minor.
 */
std::vector<SimResults>
runPolicyGrid(const std::vector<std::string> &benchmarks,
              const SimConfig &base,
              const std::vector<FetchPolicy> &policies);

/**
 * The instruction budget benches should use: the SPECFETCH_BUDGET
 * environment variable (count with K/M/G suffixes) or @p fallback.
 */
uint64_t benchBudget(uint64_t fallback);

} // namespace specfetch

#endif // SPECFETCH_CORE_SWEEP_HH_
