/**
 * @file
 * Shared command-line entry for every benchmark harness: one option
 * parser (budget, parallelism, JSONL/CSV export paths) plus the
 * process-wide report sinks and sweep wrappers that feed them.
 *
 * Usage pattern (every bench binary):
 *
 *   int main(int argc, char **argv) {
 *       if (!benchMain().parse(argc, argv, "fig1", "what it does"))
 *           return benchMain().parseFailed ? 1 : 0;
 *       SimConfig base;
 *       base.instructionBudget = benchMain().budget;
 *       ...
 *       auto results = runSweepReported(specs);   // exports per run
 *   }
 *
 * `--json <path>` appends one schema-v1 record per run as JSON Lines;
 * `--csv <path>` writes the same records flattened. Without either
 * flag the harness behaves exactly as before (tables on stdout only).
 */

#ifndef SPECFETCH_BENCH_BENCH_MAIN_HH_
#define SPECFETCH_BENCH_BENCH_MAIN_HH_

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

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

/** Retry counts beyond this are a typo, not a policy. */
constexpr uint64_t kMaxRetries = 16;

/** Parsed harness-wide options plus the open export sinks. */
class BenchMain
{
  public:
    /**
     * Parse the shared options. Returns false when the caller should
     * exit: on --help (parseFailed stays false, exit 0) or on a real
     * error (parseFailed set, exit 1). @p persistence registers the
     * result-store and fault options (--store, --retries,
     * --run-timeout, --fault-inject and SPECFETCH_FAULT_INJECT), which
     * only bench_suite acts on.
     */
    bool
    parse(int argc, const char *const *argv, const std::string &name,
          const std::string &what, uint64_t fallbackBudget = kDefaultBudget,
          bool persistence = false)
    {
        OptionParser opts(name, what);
        opts.addCount("budget", benchBudget(fallbackBudget),
                      "instructions per run (default honours "
                      "SPECFETCH_BUDGET)");
        opts.addCount("parallelism", 0,
                      "sweep worker threads (0 = hardware concurrency)");
        opts.addString("json", "",
                       "write one JSONL record per run to this path");
        opts.addString("csv", "",
                       "write flattened per-run records to this CSV path");
        opts.addString("check", "off",
                       "invariant-audit level: off, cheap or paranoid");
        opts.addCount("checkpoint-interval", 100'000,
                      "paranoid-audit checkpoint spacing, instructions");
        if (persistence) {
            opts.addString("store", "",
                           "resumable result store: a directory (runs "
                           "in-process, skipping stored runs) or the "
                           "Unix socket of a sweep_serve daemon");
            opts.addCount("retries", 3,
                          "attempts per run before quarantine (1.."
                          + std::to_string(kMaxRetries) + ")");
            opts.addDouble("run-timeout", 0.0,
                           "per-run watchdog budget in seconds (0 = off)");
            opts.addString("fault-inject", "",
                           "fault-injection spec, e.g. throw@5x2,crash@9 "
                           "(default honours SPECFETCH_FAULT_INJECT)");
        }
        opts.addCount("sample-interval", 0,
                      "emit one timeseries epoch every N retired "
                      "instructions (0 = off; needs --json)");
        opts.addFlag("heatmap",
                     "emit the per-set icache occupancy/conflict "
                     "heatmap record per run (needs --json)");
        opts.addString("adaptive", "",
                       "per-epoch policy selection: static, threshold "
                       "or bandit (needs --json for choice logs)");
        opts.addCount("adaptive-interval", 50'000,
                      "adaptive decision epoch, retired instructions "
                      "(needs --adaptive)");
        opts.addCount("adaptive-seed", 1,
                      "bandit exploration seed (needs --adaptive)");
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
        if (persistence && !parsePersistence(opts))
            return false;
        if (!opts.getString("json").empty() &&
            opts.getString("json") == opts.getString("csv")) {
            return reject("--json and --csv name the same path (%s); the "
                          "sinks would interleave",
                          opts.getString("json").c_str());
        }
        if (!opts.getString("json").empty() &&
            !openJson(opts.getString("json"))) {
            parseFailed = true;
            return false;
        }
        if (!opts.getString("csv").empty()) {
            csv = std::make_unique<CsvReportWriter>(opts.getString("csv"));
            if (!csv->ok())
                return reject("cannot write %s", csv->path().c_str());
        }
        if (opts.getFlag("list-stats")) {
            listStats();
            return false;    // exit 0, like --help
        }
        sampleInterval = opts.getCount("sample-interval");
        heatmap = opts.getFlag("heatmap");
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
        if (adaptiveSelector != SelectorKind::Off && !storePath.empty()) {
            // Same reason as --sample-interval: adaptive choice-log
            // rows are side-channel records the store cannot replay.
            return reject("--adaptive cannot be combined with --store "
                          "(choice-log rows are not stored)");
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

    /** Open (or replace) the JSONL sink outside of parse(). */
    bool
    openJson(const std::string &path)
    {
        json = std::make_unique<JsonlWriter>(path);
        if (!json->ok()) {
            std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
            json.reset();
            return false;
        }
        return true;
    }

    bool exporting() const { return json != nullptr || csv != nullptr; }

    /** Send one record to every open sink. */
    void
    emit(const JsonValue &record)
    {
        if (json)
            json->write(record);
        if (csv)
            csv->write(record);
    }

    /** Export one run (record = results + manifest [+ timing]). */
    void
    emitRun(const SimResults &results, const SimConfig &config,
            const RunTiming *timing = nullptr,
            const Classification *classification = nullptr)
    {
        if (exporting())
            emit(makeRunRecord(results, config, timing, classification));
    }

    /** Export a whole sweep in submission order. */
    void
    emitSweep(const std::vector<RunSpec> &specs,
              const std::vector<SimResults> &results,
              const SweepTiming &timing)
    {
        if (!exporting())
            return;
        for (size_t i = 0; i < specs.size(); ++i) {
            RunTiming rt;
            rt.runSeconds = i < timing.perRunSeconds.size()
                ? timing.perRunSeconds[i]
                : 0.0;
            rt.workloadBuildSeconds = timing.workloadBuildSeconds;
            rt.snapshotRecordSeconds = timing.snapshotRecordSeconds;
            rt.sweepTotalSeconds = timing.totalSeconds;
            emitRun(results[i], specs[i].config, &rt);
        }
    }

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

    /** Arm the requested collectors on every spec of a sweep. */
    void
    applyObsConfig(std::vector<RunSpec> &specs) const
    {
        if (!observing())
            return;
        for (RunSpec &spec : specs) {
            spec.config.sampleInterval = sampleInterval;
            spec.config.setHeatmap = heatmap;
        }
    }

    /** True when --adaptive armed a per-epoch selector. */
    bool adaptiveArmed() const
    {
        return adaptiveSelector != SelectorKind::Off;
    }

    /** Arm the adaptive selector on every spec of a sweep. */
    void
    applyAdaptiveConfig(std::vector<RunSpec> &specs) const
    {
        if (!adaptiveArmed())
            return;
        for (RunSpec &spec : specs) {
            spec.config.adaptiveSelector = adaptiveSelector;
            spec.config.adaptiveInterval = adaptiveInterval;
            spec.config.adaptiveSeed = adaptiveSeed;
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

    /**
     * Export the observation rows of a sweep (timeseries + heatmap
     * records, JSONL only — their arrays have no sensible CSV form).
     */
    void
    emitObservations(const std::vector<RunSpec> &specs,
                     const std::vector<SimResults> &results,
                     const std::vector<RunObservations> &observations)
    {
        if (observations.empty())
            return;
        if (!json) {
            warn("--sample-interval/--heatmap/--adaptive produce JSONL "
                 "records; give --json to keep them");
            return;
        }
        for (size_t i = 0; i < observations.size(); ++i) {
            const RunObservations &obs = observations[i];
            if (!obs.epochs.empty()) {
                json->write(makeTimeseriesRecord(obs, results[i],
                                                 specs[i].config));
            }
            if (obs.heatmap) {
                json->write(makeHeatmapRecord(*obs.heatmap, results[i],
                                              specs[i].config));
            }
            if (obs.adaptive.enabled() && !obs.adaptive.choices.empty()) {
                json->write(makeAdaptiveRecord(obs.adaptive, results[i],
                                               specs[i].config));
            }
        }
    }

    uint64_t budget = kDefaultBudget;
    unsigned parallelism = 0;
    CheckLevel checkLevel = CheckLevel::Off;
    uint64_t checkpointInterval = 100'000;
    bool parseFailed = false;
    std::unique_ptr<JsonlWriter> json;
    std::unique_ptr<CsvReportWriter> csv;
    /** @name Persistence and fault options, bench_suite only
     *  (DESIGN.md §10, §15) @{ */
    /** Result store directory, or a sweep_serve daemon's socket. */
    std::string storePath;
    unsigned retries = 3;
    double runTimeoutSeconds = 0.0;
    FaultInjector injector;
    /** @} */
    /** @name Adaptive-selection options (DESIGN.md §12) @{ */
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

  private:
    /** Read and check the options parse(persistence) registered. */
    bool
    parsePersistence(const OptionParser &opts)
    {
        storePath = opts.getString("store");
        uint64_t retriesRaw = opts.getCount("retries");
        if (retriesRaw < 1 || retriesRaw > kMaxRetries) {
            return reject("--retries must be in [1, %llu] (got %llu)",
                          static_cast<unsigned long long>(kMaxRetries),
                          static_cast<unsigned long long>(retriesRaw));
        }
        retries = static_cast<unsigned>(retriesRaw);
        runTimeoutSeconds = opts.getDouble("run-timeout");
        if (runTimeoutSeconds < 0.0) {
            return reject("--run-timeout must be non-negative seconds "
                          "(got %g)",
                          runTimeoutSeconds);
        }
        std::string error;
        if (opts.wasSet("fault-inject")) {
            if (!FaultInjector::parse(opts.getString("fault-inject"),
                                      injector, &error))
                return reject("--fault-inject: %s", error.c_str());
        } else if (!FaultInjector::fromEnv(injector, &error)) {
            return reject("%s: %s", kFaultInjectEnv, error.c_str());
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
 * runSweep + export: every result goes to the open sinks (with
 * per-run timing) before being returned in submission order.
 */
inline std::vector<SimResults>
runSweepReported(const std::vector<RunSpec> &specs)
{
    BenchMain &bm = benchMain();
    std::vector<RunSpec> audited = specs;
    if (bm.checkLevel != CheckLevel::Off) {
        for (RunSpec &spec : audited) {
            spec.config.checkLevel = bm.checkLevel;
            spec.config.checkpointInterval = bm.checkpointInterval;
        }
    }
    bm.applyObsConfig(audited);
    bm.applyAdaptiveConfig(audited);
    bm.beginProgress(audited.size());
    SweepTiming timing;
    std::vector<RunObservations> observations;
    bool collect = bm.observing() || bm.adaptiveArmed();
    std::vector<SimResults> results =
        runSweep(audited, bm.parallelism, &timing,
                 collect ? &observations : nullptr);
    bm.endProgress();
    bm.emitSweep(audited, results, timing);
    bm.emitObservations(audited, results, observations);
    return results;
}

/** Single-run convenience with the same export behavior. */
inline SimResults
runOneReported(const std::string &benchmark, const SimConfig &config)
{
    std::vector<RunSpec> specs{RunSpec{benchmark, config}};
    return runSweepReported(specs)[0];
}

} // namespace bench
} // namespace specfetch

#endif // SPECFETCH_BENCH_BENCH_MAIN_HH_
