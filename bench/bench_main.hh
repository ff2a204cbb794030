/**
 * @file
 * Shared command-line entry for every benchmark harness: one option
 * parser (budget, parallelism, JSONL export path) plus the
 * process-wide record sink and the sweep wrapper that feeds it.
 *
 * Usage pattern (every bench binary):
 *
 *   int main(int argc, char **argv) {
 *       if (!benchMain().parse(argc, argv, "paper", "what it does"))
 *           return benchMain().parseFailed ? 1 : 0;
 *       SimConfig base;
 *       base.instructionBudget = benchMain().budget;
 *       ...
 *       auto results = runSweepReported(specs);   // exports per run
 *   }
 *
 * `--json <path>` writes one schema-v1 record per run as JSON Lines.
 * The file is checked at parse time but opened (and truncated) at its
 * first record, so a run that fails before then leaves it as it was.
 * Without the flag the harness prints its tables on stdout only.
 */

#ifndef SPECFETCH_BENCH_BENCH_MAIN_HH_
#define SPECFETCH_BENCH_BENCH_MAIN_HH_

#include <algorithm>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "adaptive/adaptive_record.hh"
#include "adaptive/selector_kind.hh"
#include "check/check_level.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "fault/injector.hh"
#include "obs/obs_record.hh"
#include "obs/progress.hh"
#include "obs/trace_event.hh"
#include "report/record.hh"
#include "report/report.hh"
#include "util/logging.hh"
#include "util/options.hh"

namespace specfetch {
namespace bench {

/** Default per-run instruction budget (SPECFETCH_BUDGET overrides). */
constexpr uint64_t kDefaultBudget = 4'000'000;

/** bench_suite's record file when --json names none. */
constexpr const char *kSuiteRecords = "BENCH_results.json";

/** Retry counts beyond this are a typo, not a policy. */
constexpr uint64_t kMaxRetries = 16;

/**
 * Register the run guard's options (DESIGN.md §10): --retries,
 * --run-timeout and --fault-inject, as bench_suite and sweep_serve
 * both take them.
 */
inline void
addGuardOptions(OptionParser &opts)
{
    opts.addCount("retries", SweepGuard{}.maxAttempts,
                  "attempts per run before it fails (1.." +
                      std::to_string(kMaxRetries) + ")");
    opts.addDouble("run-timeout", 0.0,
                   "per-run watchdog budget in seconds (0 = off)");
    opts.addString("fault-inject", "",
                   "fault-injection spec, e.g. throw@5x2,crash@9; run "
                   "faults index the runs executed, store faults the "
                   "puts");
}

/**
 * Read the options addGuardOptions() registered into @p guard. The
 * fault spec is parsed into @p injector, which the guard borrows
 * unless it is empty. Returns the error of a
 * bad value, naming its option, or an empty string.
 */
inline std::string
readGuardOptions(const OptionParser &opts, SweepGuard &guard,
                 FaultInjector &injector)
{
    uint64_t retries = opts.getCount("retries");
    if (retries < 1 || retries > kMaxRetries) {
        return "--retries must be in [1, " + std::to_string(kMaxRetries) +
               "] (got " + std::to_string(retries) + ")";
    }
    guard.maxAttempts = static_cast<unsigned>(retries);
    guard.runTimeoutSeconds = opts.getDouble("run-timeout");
    if (!(guard.runTimeoutSeconds >= 0.0)) {
        return detail::format("--run-timeout must be non-negative seconds "
                              "(got %g)",
                              guard.runTimeoutSeconds);
    }
    std::string error;
    if (!FaultInjector::parse(opts.getString("fault-inject"), injector,
                              &error))
        return "--fault-inject: " + error;
    guard.injector = injector.empty() ? nullptr : &injector;
    return "";
}

/**
 * Whether @p path can take a record file, checked without creating or
 * truncating anything: an existing file must open for appending, a
 * new one's directory must take files.
 */
inline bool
writablePath(const std::string &path)
{
    int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd >= 0)
        return ::close(fd) == 0;
    if (errno != ENOENT)
        return false;
    std::string dir = std::filesystem::path(path).parent_path().string();
    return ::access(dir.empty() ? "." : dir.c_str(), W_OK | X_OK) == 0;
}

/** Parsed harness-wide options plus the open export sinks. */
class BenchMain
{
  public:
    /**
     * Parse the shared options. Returns false when the caller should
     * exit: on --help (parseFailed stays false, exit 0) or on a real
     * error (parseFailed set, exit 1). @p suite registers the options
     * only bench_suite acts on: the result store (--store), the run
     * guard (addGuardOptions()) and adaptive selection (--adaptive,
     * --adaptive-interval, --adaptive-seed); its records then default
     * to kSuiteRecords. A non-empty @p experimentNames registers
     * --experiment, which must name one of them (the experiment
     * table's rows); `experiment` stays empty when it is not given.
     */
    bool
    parse(int argc, const char *const *argv, const std::string &name,
          const std::string &what, uint64_t fallbackBudget = kDefaultBudget,
          bool suite = false,
          const std::vector<std::string> &experimentNames = {})
    {
        OptionParser opts(name, what);
        if (!experimentNames.empty()) {
            opts.addString("experiment", "",
                           "run only this row of the experiment table");
        }
        opts.addCount("budget", benchBudget(fallbackBudget),
                      "instructions per run (default honours "
                      "SPECFETCH_BUDGET)");
        opts.addCount("parallelism", 0,
                      "sweep worker threads (0 = hardware concurrency)");
        opts.addString("json", "",
                       "write one JSONL record per run to this path");
        opts.addString("check", "off",
                       "invariant-audit level: off, cheap or paranoid");
        opts.addCount("checkpoint-interval", 100'000,
                      "paranoid-audit checkpoint spacing, instructions");
        if (suite) {
            opts.addString("store", "",
                           "resumable result store: a directory (runs "
                           "in-process, skipping stored runs), or "
                           "unix:PATH, the socket of a sweep_serve "
                           "daemon");
            addGuardOptions(opts);
            opts.addString("adaptive", "",
                           "per-epoch policy selection: static, "
                           "threshold or bandit (needs --json for "
                           "choice logs)");
            opts.addCount("adaptive-interval", 50'000,
                          "adaptive decision epoch, retired "
                          "instructions (needs --adaptive)");
            opts.addCount("adaptive-seed", 1,
                          "bandit exploration seed (needs --adaptive)");
        }
        opts.addCount("sample-interval", 0,
                      "emit one timeseries epoch every N retired "
                      "instructions (0 = off; needs --json)");
        opts.addFlag("heatmap",
                     "emit the per-set icache occupancy/conflict "
                     "heatmap record per run (needs --json)");
        opts.addString("trace-out", "",
                       "write Chrome trace-event spans (Perfetto/"
                       "about:tracing) to this JSON path");
        opts.addFlag("progress",
                     "heartbeat sweep progress (completed/retried/"
                     "quarantined, ETA) on stderr");
        opts.addString("progress-file", "",
                       "append schema-v1 progress rows to this JSONL "
                       "path");
        opts.addDouble("progress-interval", 2.0,
                       "progress heartbeat period in seconds");
        opts.addFlag("list-stats",
                     "list every exportable statistic (name + "
                     "description) and exit");
        if (!opts.parse(argc, argv)) {
            parseFailed = !wantedHelp(argc, argv);
            return false;
        }
        budget = opts.getCount("budget");
        if (budget == 0)
            return reject("--budget must be a positive instruction count "
                          "(got 0)");
        parallelism = static_cast<unsigned>(opts.getCount("parallelism"));
        if (opts.wasSet("parallelism") && parallelism == 0) {
            return reject("--parallelism 0 is ambiguous; omit the option "
                          "to use hardware concurrency");
        }
        if (!parseCheckLevel(opts.getString("check"), checkLevel)) {
            return reject("--check expects off, cheap or paranoid (got "
                          "'%s')",
                          opts.getString("check").c_str());
        }
        checkpointInterval = opts.getCount("checkpoint-interval");
        if (checkpointInterval == 0) {
            return reject("--checkpoint-interval expects a positive "
                          "instruction count (got 0)");
        }
        sampleInterval = opts.getCount("sample-interval");
        heatmap = opts.getFlag("heatmap");
        if (suite && !parseSuite(opts))
            return false;
        if (!experimentNames.empty() && opts.wasSet("experiment")) {
            experiment = opts.getString("experiment");
            if (std::find(experimentNames.begin(), experimentNames.end(),
                          experiment) == experimentNames.end()) {
                std::string valid;
                for (const std::string &known : experimentNames)
                    valid += (valid.empty() ? "" : ", ") + known;
                return reject("unknown --experiment '%s'; valid: %s",
                              experiment.c_str(), valid.c_str());
            }
        }
        jsonPath = opts.getString("json");
        if (suite && jsonPath.empty())
            jsonPath = kSuiteRecords;
        if (!jsonPath.empty() && !writablePath(jsonPath))
            return reject("cannot write %s", jsonPath.c_str());
        if (opts.getFlag("list-stats")) {
            listStats();
            return false;    // exit 0, like --help
        }
        progressInterval = opts.getDouble("progress-interval");
        if (progressInterval <= 0.0) {
            return reject("--progress-interval must be positive seconds "
                          "(got %g)",
                          progressInterval);
        }
        progress = opts.getFlag("progress");
        progressFile = opts.getString("progress-file");
        benchName = name;
        traceOut = opts.getString("trace-out");
        if (!traceOut.empty()) {
            TraceEventSink::global().open(traceOut);
            // Flushed via atexit so spans from every sweep the harness
            // runs land in one document (static-destructor order would
            // be fragile here).
            std::atexit([] { TraceEventSink::global().close(); });
        }
        return true;
    }

    /** Send one record to the JSONL sink (a no-op without --json),
     *  opening it on the first record. */
    void
    emit(const JsonValue &record)
    {
        if (jsonPath.empty())
            return;
        if (!json) {
            json = std::make_unique<JsonlWriter>(jsonPath);
            if (!json->ok())
                warn("cannot write %s; its records are lost",
                     jsonPath.c_str());
        }
        json->write(record);
    }

    /** JSONL records written so far. */
    size_t jsonRecords() const { return json ? json->recordsWritten() : 0; }

    /** Print every exportable stat (the sampler/export surface). */
    static void
    listStats()
    {
        SimResults sample;
        std::printf("%-28s %s\n", "stat", "description");
        sample.visitStats([](const std::string &name,
                             const std::string &description,
                             bool isCounter) {
            std::printf("%-28s %s%s\n", name.c_str(),
                        description.c_str(),
                        isCounter ? "" : " [derived]");
        });
    }

    /** True when any per-run collector (src/obs) is armed. */
    bool observing() const { return sampleInterval > 0 || heatmap; }

    /** True when --adaptive armed a per-epoch selector. */
    bool adaptiveArmed() const
    {
        return adaptiveSelector != SelectorKind::Off;
    }

    /** Arm the requested audit, collectors and adaptive selector on
     *  every spec of a sweep. */
    void
    arm(std::vector<RunSpec> &specs) const
    {
        for (RunSpec &spec : specs) {
            if (checkLevel != CheckLevel::Off) {
                spec.config.checkLevel = checkLevel;
                spec.config.checkpointInterval = checkpointInterval;
            }
            if (observing()) {
                spec.config.sampleInterval = sampleInterval;
                spec.config.setHeatmap = heatmap;
            }
            if (adaptiveArmed()) {
                spec.config.adaptiveSelector = adaptiveSelector;
                spec.config.adaptiveInterval = adaptiveInterval;
                spec.config.adaptiveSeed = adaptiveSeed;
            }
        }
    }

    /** Start the heartbeat over a sweep of @p totalRuns (no-op unless
     *  --progress/--progress-file was given). */
    void
    beginProgress(uint64_t totalRuns) const
    {
        if (!progress && progressFile.empty())
            return;
        ProgressReporter::Options options;
        options.toStderr = progress;
        options.filePath = progressFile;
        options.intervalSeconds = progressInterval;
        ProgressReporter::global().begin(options, totalRuns, benchName);
    }

    void
    endProgress() const
    {
        ProgressReporter::global().end();
    }

    /** Export the observation rows of a sweep (timeseries, heatmap
     *  and adaptive records). */
    void
    emitObservations(const std::vector<RunSpec> &specs,
                     const std::vector<SimResults> &results,
                     const std::vector<RunObservations> &observations)
    {
        if (observations.empty())
            return;
        if (jsonPath.empty()) {
            warn("--sample-interval/--heatmap/--adaptive produce JSONL "
                 "records; give --json to keep them");
            return;
        }
        for (size_t i = 0; i < observations.size(); ++i) {
            const RunObservations &obs = observations[i];
            if (!obs.epochs.empty()) {
                emit(makeTimeseriesRecord(obs, results[i],
                                          specs[i].config));
            }
            if (obs.heatmap) {
                emit(makeHeatmapRecord(*obs.heatmap, results[i],
                                       specs[i].config));
            }
            if (obs.adaptive.enabled() && !obs.adaptive.choices.empty()) {
                emit(makeAdaptiveRecord(obs.adaptive, results[i],
                                        specs[i].config));
            }
        }
    }

    uint64_t budget = kDefaultBudget;
    unsigned parallelism = 0;
    CheckLevel checkLevel = CheckLevel::Off;
    uint64_t checkpointInterval = 100'000;
    bool parseFailed = false;
    /** --json: the record file, empty when not given. */
    std::string jsonPath;
    /** @name bench_suite's store, guard and adaptive options
     *  (DESIGN.md §10, §12, §15) @{ */
    /** Result store directory, or a sweep_serve daemon's socket. */
    std::string storePath;
    /** The run guard; its injector, when armed, is `injector`. */
    SweepGuard guard;
    FaultInjector injector;
    SelectorKind adaptiveSelector = SelectorKind::Off;
    uint64_t adaptiveInterval = 50'000;
    uint64_t adaptiveSeed = 1;
    /** @} */
    /** @name Observability options (DESIGN.md §11) @{ */
    uint64_t sampleInterval = 0;
    bool heatmap = false;
    std::string traceOut;
    bool progress = false;
    std::string progressFile;
    double progressInterval = 2.0;
    /** @} */
    /** Harness name (progress label). */
    std::string benchName;
    /** --experiment: the one row to run, or empty for all. */
    std::string experiment;

  private:
    /** The record sink, opened (truncating) at its first record. */
    std::unique_ptr<JsonlWriter> json;

    /** Read and check the options parse(suite) registered. */
    bool
    parseSuite(const OptionParser &opts)
    {
        storePath = opts.getString("store");
        std::string error = readGuardOptions(opts, guard, injector);
        if (!error.empty())
            return reject("%s", error.c_str());
        if ((sampleInterval > 0 || heatmap) && !storePath.empty()) {
            // The store keeps exactly one record per run key and a
            // rerun replays it verbatim; side-channel timeseries/
            // heatmap rows would not survive a resume byte-identically.
            return reject("--sample-interval/--heatmap cannot be combined "
                          "with --store (observation rows are not "
                          "stored)");
        }
        if (opts.wasSet("adaptive") &&
            (!parseSelectorKind(opts.getString("adaptive"),
                                adaptiveSelector) ||
             adaptiveSelector == SelectorKind::Off)) {
            return reject("--adaptive expects static, threshold or bandit "
                          "(got '%s')",
                          opts.getString("adaptive").c_str());
        }
        if ((opts.wasSet("adaptive-interval") ||
             opts.wasSet("adaptive-seed")) &&
            adaptiveSelector == SelectorKind::Off) {
            return reject("--adaptive-interval/--adaptive-seed need "
                          "--adaptive to pick a selector");
        }
        adaptiveInterval = opts.getCount("adaptive-interval");
        if (adaptiveInterval == 0) {
            return reject("--adaptive-interval must be a positive "
                          "instruction count (got 0)");
        }
        adaptiveSeed = opts.getCount("adaptive-seed");
        if (adaptiveArmed() && !storePath.empty()) {
            // Same reason as --sample-interval: adaptive choice-log
            // rows are side-channel records the store cannot replay.
            return reject("--adaptive cannot be combined with --store "
                          "(choice-log rows are not stored)");
        }
        return true;
    }

    /** Print "error: <message>" to stderr and fail the parse. */
    __attribute__((format(printf, 2, 3))) bool
    reject(const char *format, ...)
    {
        std::va_list args;
        va_start(args, format);
        std::fputs("error: ", stderr);
        std::vfprintf(stderr, format, args);
        std::fputc('\n', stderr);
        va_end(args);
        parseFailed = true;
        return false;
    }

    static bool
    wantedHelp(int argc, const char *const *argv)
    {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--help" || arg == "-h")
                return true;
        }
        return false;
    }
};

/** The process-wide harness state (one harness = one process). */
inline BenchMain &
benchMain()
{
    static BenchMain instance;
    return instance;
}

/** Exit code helper for the `if (!parse(...))` pattern. */
inline int
parseExitCode()
{
    return benchMain().parseFailed ? 1 : 0;
}

/**
 * runSweep + export: every result goes to the sinks (with per-run
 * timing), inside an `emit` span, before being returned in submission
 * order. With @p classifications the sweep's classify stage fills it
 * (one per spec) and every record carries its spec's classification;
 * @p timing, when given, receives the sweep's stage times.
 */
inline std::vector<SimResults>
runSweepReported(const std::vector<RunSpec> &specs,
                 std::vector<Classification> *classifications = nullptr,
                 SweepTiming *timing = nullptr)
{
    BenchMain &bm = benchMain();
    std::vector<RunSpec> armed = specs;
    bm.arm(armed);
    bm.beginProgress(armed.size());
    SweepTiming ownTiming;
    if (!timing)
        timing = &ownTiming;
    std::vector<RunObservations> observations;
    bool collect = bm.observing() || bm.adaptiveArmed();
    SweepOptions options;
    options.parallelism = bm.parallelism;
    options.timing = timing;
    if (collect)
        options.observations = &observations;
    options.classifications = classifications;
    std::vector<SimResults> results = runSweep(armed, options).results;
    bm.endProgress();
    TraceSpan span("emit", "bench");
    for (size_t i = 0; !bm.jsonPath.empty() && i < armed.size(); ++i) {
        RunTiming rt;
        rt.runSeconds = timing->perRunSeconds[i];
        rt.workloadBuildSeconds = timing->workloadBuildSeconds;
        rt.snapshotRecordSeconds = timing->snapshotRecordSeconds;
        rt.sweepTotalSeconds = timing->totalSeconds;
        bm.emit(makeRunRecord(
            results[i], armed[i].config, &rt,
            classifications ? &(*classifications)[i] : nullptr));
    }
    bm.emitObservations(armed, results, observations);
    return results;
}

} // namespace bench
} // namespace specfetch

#endif // SPECFETCH_BENCH_BENCH_MAIN_HH_
