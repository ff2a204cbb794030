/**
 * @file
 * The benchmark's traced driver. It repeats a workload's work by
 * calling each layer's public functions itself, with a span around
 * every call, and prints the per-layer metrics as one JSON object on
 * the last line of stdout. Spans live in memory and are folded into
 * totals when the run ends; nothing inside the library is touched.
 *
 *   perfbench_probe grid --budget 2M --threads 4 --json out.jsonl
 *                        [--observed]
 *   perfbench_probe serve --requests sent.jsonl --prepop prepop.jsonl
 *                         --store DIR [--layers-only]
 *   perfbench_probe resim  < requests.jsonl   # one run record per line
 *   perfbench_probe load --socket PATH --connections N --daemon-pid PID
 *                        < phased-requests > answers
 *   perfbench_probe calib                     # fixed-work host timing
 *   perfbench_probe names                     # registered profiles
 *
 * `grid` mirrors bench_suite's default path (bench/bench_suite.cc):
 * serial per-profile build + classification, the shared snapshot
 * record, the policy x prefetch grid on a worker pool, record
 * emission and the adaptive column; its JSONL must equal bench_suite's
 * with the timing stripped. `serve` replays the request lines a
 * sweep_serve session answered, serially, through the same layer calls
 * SweepService makes per request (parse, store get, workload build,
 * classification, live simulation, record, store put). Both also run
 * the kernel component replay on a recorded gcc stream. `load` is
 * serve_mixed's closed-loop client (see loadMode).
 */

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adaptive/adaptive_record.hh"
#include "adaptive/oracle.hh"
#include "branch/predictor.hh"
#include "cache/icache.hh"
#include "core/miss_classifier.hh"
#include "core/policy.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "obs/obs_record.hh"
#include "report/record.hh"
#include "report/report.hh"
#include "report/serve_record.hh"
#include "serve/request.hh"
#include "serve/result_store.hh"
#include "trace/snapshot.hh"
#include "util/string_utils.hh"
#include "workload/executor.hh"
#include "workload/registry.hh"
#include "workload/workload.hh"

using namespace specfetch;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** In-memory span log: totals and counts per span name, plus the time
 *  covered by top-level spans of the main thread. */
class Tracer
{
  public:
    /** A disabled tracer records nothing: the untraced reference run. */
    explicit Tracer(bool enabled = true) : enabled(enabled) {}

    class Span
    {
      public:
        Span(Tracer &tracer, const char *name)
            : tracer(tracer), name(name)
        {
            if (!tracer.enabled)
                return;
            start = Clock::now();
            ++depth();
        }
        ~Span()
        {
            if (!tracer.enabled)
                return;
            Clock::time_point end = Clock::now();
            bool top = --depth() == 0 && std::this_thread::get_id() ==
                tracer.mainThread;
            tracer.add(name, secondsBetween(start, end), top);
        }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        static int &
        depth()
        {
            thread_local int value = 0;
            return value;
        }
        Tracer &tracer;
        const char *name;
        Clock::time_point start;
    };

    void
    add(const std::string &name, double seconds, bool top)
    {
        std::lock_guard<std::mutex> lock(mutex);
        Total &total = totals[name];
        total.seconds += seconds;
        ++total.count;
        if (top)
            covered += seconds;
    }

    double seconds(const std::string &name) const
    {
        auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.seconds;
    }
    uint64_t count(const std::string &name) const
    {
        auto it = totals.find(name);
        return it == totals.end() ? 0 : it->second.count;
    }

    const bool enabled;
    std::thread::id mainThread = std::this_thread::get_id();
    double covered = 0.0;

  private:
    struct Total
    {
        double seconds = 0.0;
        uint64_t count = 0;
    };
    std::mutex mutex;
    std::map<std::string, Total> totals;
};

/** Per-layer metrics in insertion-independent (sorted) order. */
using Metrics = std::map<std::string, double>;

void
printMetrics(const Metrics &metrics)
{
    std::string out = "{";
    for (const auto &[name, value] : metrics) {
        if (out.size() > 1)
            out += ",";
        char buffer[64];
        std::snprintf(buffer, sizeof(buffer), "%.9g", value);
        out += JsonValue::escape(name) + ":" + buffer;
    }
    out += "}";
    std::printf("%s\n", out.c_str());
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Fastest of @p repeats calls of @p fn, in seconds: host noise only
 *  ever adds time. */
template <typename Fn>
double
timeBest(unsigned repeats, Fn &&fn)
{
    double best = 0.0;
    for (unsigned i = 0; i < repeats; ++i) {
        Clock::time_point start = Clock::now();
        fn();
        double seconds = secondsBetween(start, Clock::now());
        if (i == 0 || seconds < best)
            best = seconds;
    }
    return best;
}

/** Run fn(0..count-1) on @p workers threads (work stealing), like the
 *  sweep's pool. */
template <typename Fn>
void
parallelFor(size_t count, unsigned workers, Fn &&fn)
{
    std::atomic<size_t> next{0};
    auto worker = [&]() {
        for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1))
            fn(i);
    };
    std::vector<std::thread> threads;
    for (unsigned w = 1; w < workers; ++w)
        threads.emplace_back(worker);
    worker();
    for (std::thread &thread : threads)
        thread.join();
}

/** Options as --name value pairs (flags take no value). */
struct Args
{
    std::map<std::string, std::string> values;

    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                continue;
            key = key.substr(2);
            if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
                values[key] = argv[++i];
            else
                values[key] = "1";
        }
    }
    bool has(const std::string &key) const { return values.count(key); }
    std::string get(const std::string &key, const std::string &fallback)
        const
    {
        auto it = values.find(key);
        return it == values.end() ? fallback : it->second;
    }
    uint64_t count(const std::string &key, uint64_t fallback) const
    {
        uint64_t value = fallback;
        if (has(key) && !parseCount(get(key, ""), value))
            value = fallback;
        return value;
    }
};

/** Work counts of simulated runs (deterministic; never performance). */
struct WorkCounts
{
    uint64_t instructions = 0, controls = 0, branchMisses = 0;
    uint64_t demandAccesses = 0, demandMisses = 0, wrongAccesses = 0;
    uint64_t prefetchIssued = 0, prefetchBufferHits = 0;

    void
    add(const SimResults &r, bool prefetching)
    {
        instructions += r.instructions;
        controls += r.controlInsts;
        branchMisses +=
            r.misfetches + r.dirMispredicts + r.targetMispredicts;
        demandAccesses += r.demandAccesses;
        demandMisses += r.demandMisses;
        wrongAccesses += r.wrongAccesses;
        if (prefetching) {
            prefetchIssued += r.prefetchesIssued;
            prefetchBufferHits += r.bufferHits;
        }
    }

    void
    report(Metrics &m) const
    {
        m["branch.correct_frac"] =
            controls ? 1.0 - double(branchMisses) / double(controls) : 0.0;
        m["cache.hit_frac"] = demandAccesses
            ? 1.0 - double(demandMisses) / double(demandAccesses)
            : 0.0;
        m["cache.prefetch_hits_per_issue"] = prefetchIssued
            ? double(prefetchBufferHits) / double(prefetchIssued)
            : 0.0;
        m["core.wrong_accesses_per_kinst"] = instructions
            ? 1000.0 * double(wrongAccesses) / double(instructions)
            : 0.0;
    }
};

/**
 * Kernel component replay on a recorded gcc stream: the executor, the
 * snapshot record and replay, the branch predictor and the I-cache
 * each in isolation, the whole replayed kernel on the same stream, and
 * the cost of each armed collector. Every time is the fastest of
 * several repeats.
 */
void
componentReplay(uint64_t budget, Metrics &m)
{
    std::shared_ptr<const Workload> gcc = sharedWorkload("gcc");
    SimConfig config;
    config.instructionBudget = budget;

    double execSeconds = timeBest(5, [&] {
        Executor executor(gcc->cfg, config.runSeed);
        DynInst inst;
        for (uint64_t i = 0; i < budget; ++i)
            executor.next(inst);
    });
    TraceSnapshot snapshot;
    double recordSeconds = timeBest(5, [&] {
        Executor executor(gcc->cfg, config.runSeed);
        snapshot = TraceSnapshot::record(executor, budget);
    });
    uint64_t replayed = 0;
    double replaySeconds = timeBest(5, [&] {
        SnapshotReplaySource source(snapshot);
        DynInst inst;
        replayed = 0;
        while (source.next(inst))
            ++replayed;
    });

    // The component streams, extracted untimed.
    std::vector<DynInst> controls;
    std::vector<Addr> lines;
    {
        ICache shape(config.icache);
        SnapshotReplaySource source(snapshot);
        DynInst inst;
        while (source.next(inst)) {
            if (isControl(inst.cls))
                controls.push_back(inst);
            Addr line = shape.lineOf(inst.pc);
            if (lines.empty() || lines.back() != line)
                lines.push_back(line);
        }
    }
    double branchSeconds = timeBest(5, [&] {
        BranchPredictor predictor(config.predictor);
        for (const DynInst &inst : controls) {
            Prediction p = predictor.predict(inst.pc, inst.cls);
            predictor.onDecode(inst.pc, gcc->image.at(inst.pc), p.taken);
            predictor.onResolve(inst);
        }
    });
    double cacheSeconds = timeBest(5, [&] {
        ICache icache(config.icache);
        for (Addr line : lines) {
            if (!icache.access(line))
                icache.insert(line);
        }
    });
    double simSeconds = timeBest(5, [&] {
        runSimulation(*gcc, config, snapshot);
    });
    double liveSeconds = timeBest(5, [&] {
        runSimulation(*gcc, config);
    });

    // Each collector against the plain kernel, interleaved so host
    // drift hits every variant alike.
    SimConfig variants[4] = {config, config, config, config};
    variants[1].sampleInterval = 10'000;
    variants[2].setHeatmap = true;
    variants[3].adaptiveSelector = SelectorKind::Bandit;
    double best[4] = {0.0, 0.0, 0.0, 0.0};
    for (unsigned rep = 0; rep < 9; ++rep) {
        for (unsigned v = 0; v < 4; ++v) {
            Clock::time_point start = Clock::now();
            RunObservations obs;
            runSimulation(*gcc, variants[v], snapshot, obs);
            double seconds = secondsBetween(start, Clock::now());
            if (rep == 0 || seconds < best[v])
                best[v] = seconds;
        }
    }
    double plain = best[0], sampler = best[1], heatmap = best[2],
           bandit = best[3];

    m["workload.exec_minst_per_s"] = double(budget) / execSeconds / 1e6;
    m["trace.replay_minst_per_s"] = double(replayed) / replaySeconds / 1e6;
    m["branch.ns_per_branch"] = 1e9 * branchSeconds / double(controls.size());
    m["cache.ns_per_access"] = 1e9 * cacheSeconds / double(lines.size());
    double residual =
        1.0 - (branchSeconds + cacheSeconds + replaySeconds) / simSeconds;
    m["core.kernel_other_frac"] = residual;
    if (residual < 0.0) {
        std::fprintf(stderr,
                     "perfbench_probe: negative kernel residual %.3f: the "
                     "components replayed alone cost more than the kernel\n",
                     residual);
    }
    m["component.sim_s"] = simSeconds;
    m["component.record_s"] = recordSeconds;
    m["component.snapshot_mb"] = double(snapshot.byteSize()) / 1e6;
    m["component.live_minst_per_s"] = double(budget) / liveSeconds / 1e6;
    m["component.replay_minst_per_s"] = double(budget) / simSeconds / 1e6;
    m["obs.sampler_overhead_frac"] = sampler / plain - 1.0;
    m["obs.heatmap_overhead_frac"] = heatmap / plain - 1.0;
    m["adaptive.select_overhead_frac"] = bandit / plain - 1.0;
}

/** bench_suite's adaptive-column operating point (bench_suite.cc). */
constexpr uint64_t kAdaptiveBudget = 500'000;
constexpr uint64_t kAdaptiveInterval = 20'000;
constexpr unsigned kAdaptivePenalty = 8;
constexpr double kAdaptiveEpsilon = 0.05;

/** The adaptive column over @p names, writing its records. */
void
adaptiveColumn(Tracer &tracer, const std::vector<std::string> &names,
               const SimConfig &grid, unsigned threads, JsonlWriter *json)
{
    const std::vector<FetchPolicy> &policies = allPolicies();
    SimConfig base = grid;
    base.instructionBudget = kAdaptiveBudget;
    base.missPenaltyCycles = kAdaptivePenalty;

    std::vector<RunSpec> staticSpecs;
    for (const std::string &name : names) {
        for (FetchPolicy policy : policies) {
            SimConfig config = base;
            config.policy = policy;
            config.sampleInterval = kAdaptiveInterval;
            staticSpecs.push_back(RunSpec{name, config});
        }
    }
    const SelectorKind kinds[] = {SelectorKind::Threshold,
                                  SelectorKind::Bandit};
    std::vector<RunSpec> adaptiveSpecs;
    for (const std::string &name : names) {
        for (SelectorKind kind : kinds) {
            SimConfig config = base;
            config.policy = FetchPolicy::Resume;
            config.adaptiveSelector = kind;
            config.adaptiveInterval = kAdaptiveInterval;
            config.adaptiveEpsilon = kAdaptiveEpsilon;
            adaptiveSpecs.push_back(RunSpec{name, config});
        }
    }
    std::vector<RunObservations> staticObs, adaptiveObs;
    std::vector<SimResults> staticResults, adaptiveResults;
    {
        Tracer::Span span(tracer, "adaptive.sweeps");
        staticResults = runSweep(staticSpecs, threads, nullptr, &staticObs);
        adaptiveResults =
            runSweep(adaptiveSpecs, threads, nullptr, &adaptiveObs);
    }
    for (size_t b = 0; b < names.size(); ++b) {
        std::vector<std::vector<EpochRecord>> epochs;
        std::vector<double> staticIspi;
        for (size_t p = 0; p < policies.size(); ++p) {
            size_t i = b * policies.size() + p;
            epochs.push_back(std::move(staticObs[i].epochs));
            staticIspi.push_back(staticResults[i].ispi());
        }
        PerIntervalOracle oracle;
        {
            Tracer::Span span(tracer, "adaptive.oracle");
            oracle = buildPerIntervalOracle(policies, std::move(epochs),
                                            std::move(staticIspi),
                                            kAdaptiveInterval);
        }
        for (size_t k = 0; k < 2; ++k) {
            size_t i = b * 2 + k;
            AdaptiveRegret regret =
                computeRegret(adaptiveResults[i].ispi(), oracle);
            JsonValue record;
            {
                Tracer::Span span(tracer, "report.record");
                record = makeAdaptiveRecord(adaptiveObs[i].adaptive,
                                            adaptiveResults[i],
                                            adaptiveSpecs[i].config,
                                            &regret);
            }
            if (json) {
                Tracer::Span span(tracer, "report.write");
                json->write(record);
            }
        }
    }
}

/** Bytes written through @p json so far (the file's size). */
double
fileMegabytes(const std::string &path)
{
    std::error_code error;
    uintmax_t size = std::filesystem::file_size(path, error);
    return error ? 0.0 : double(size) / 1e6;
}

/** bench_suite's default path, traced. */
int
gridMode(const Args &args)
{
    const uint64_t budget = args.count("budget", 2'000'000);
    const unsigned threads =
        static_cast<unsigned>(args.count("threads", 4));
    const bool observed = args.has("observed");
    const std::string jsonPath = args.get("json", "probe.jsonl");

    Tracer tracer;
    Metrics m;
    Clock::time_point phaseStart = Clock::now();

    SimConfig base;
    base.instructionBudget = budget;
    const std::vector<std::string> &names = benchmarkNames();

    // bench_suite.cc: one classification per profile, serially.
    std::vector<Classification> classifications;
    {
        Tracer::Span setup(tracer, "setup");
        for (const std::string &name : names) {
            Workload w = [&] {
                Tracer::Span span(tracer, "workload.build");
                return buildWorkload(getProfile(name));
            }();
            Tracer::Span span(tracer, "core.classify");
            classifications.push_back(classifyMisses(w, base));
        }
    }

    std::vector<RunSpec> specs;
    for (const std::string &name : names) {
        for (FetchPolicy policy : allPolicies()) {
            for (bool prefetch : {false, true}) {
                SimConfig config = base;
                config.policy = policy;
                config.nextLinePrefetch = prefetch;
                if (observed) {
                    config.sampleInterval = 10'000;
                    config.setHeatmap = true;
                    config.adaptiveSelector = SelectorKind::Bandit;
                }
                specs.push_back(RunSpec{name, config});
            }
        }
    }

    // runSweep's shared stage: memoized workloads, one snapshot per
    // profile (every profile's stream has ten consumers).
    std::map<std::string, std::shared_ptr<const Workload>> workloads;
    {
        Tracer::Span span(tracer, "workload.shared");
        for (const std::string &name : names)
            workloads[name] = sharedWorkload(name);
    }
    std::vector<TraceSnapshot> snapshots(names.size());
    double snapshotBytes = 0.0;
    {
        Tracer::Span span(tracer, "trace.record");
        parallelFor(names.size(), threads, [&](size_t i) {
            Executor executor(workloads[names[i]]->cfg, base.runSeed);
            snapshots[i] = TraceSnapshot::record(executor, budget);
        });
        for (const TraceSnapshot &snapshot : snapshots)
            snapshotBytes += double(snapshot.byteSize());
    }

    const size_t perProfile = allPolicies().size() * 2;
    std::vector<SimResults> results(specs.size());
    std::vector<RunObservations> observations(specs.size());
    std::vector<double> runSeconds(specs.size());
    double gridWall;
    {
        Tracer::Span span(tracer, "core.grid");
        Clock::time_point start = Clock::now();
        parallelFor(specs.size(), threads, [&](size_t i) {
            const RunSpec &spec = specs[i];
            Tracer::Span run(tracer, "core.simulate");
            Clock::time_point runStart = Clock::now();
            const TraceSnapshot &snapshot = snapshots[i / perProfile];
            results[i] = observed
                ? runSimulation(*workloads[spec.benchmark], spec.config,
                                snapshot, observations[i])
                : runSimulation(*workloads[spec.benchmark], spec.config,
                                snapshot);
            runSeconds[i] = secondsBetween(runStart, Clock::now());
        });
        gridWall = secondsBetween(start, Clock::now());
    }

    JsonlWriter json(jsonPath);
    if (!json.ok()) {
        std::fprintf(stderr, "perfbench_probe: cannot write %s\n",
                     jsonPath.c_str());
        return 1;
    }
    {
        Tracer::Span emit(tracer, "report.emit");
        auto write = [&](auto build) {
            JsonValue record;
            {
                Tracer::Span span(tracer, "report.record");
                record = build();
            }
            Tracer::Span span(tracer, "report.write");
            json.write(record);
        };
        for (size_t i = 0; i < specs.size(); ++i) {
            RunTiming rt;
            rt.runSeconds = runSeconds[i];
            write([&] {
                return makeRunRecord(results[i], specs[i].config, &rt,
                                     &classifications[i / perProfile]);
            });
        }
        for (size_t i = 0; observed && i < specs.size(); ++i) {
            const RunObservations &obs = observations[i];
            if (!obs.epochs.empty()) {
                write([&] {
                    return makeTimeseriesRecord(obs, results[i],
                                                specs[i].config);
                });
            }
            if (obs.heatmap) {
                write([&] {
                    return makeHeatmapRecord(*obs.heatmap, results[i],
                                             specs[i].config);
                });
            }
            if (obs.adaptive.enabled() && !obs.adaptive.choices.empty()) {
                write([&] {
                    return makeAdaptiveRecord(obs.adaptive, results[i],
                                              specs[i].config);
                });
            }
        }
    }
    {
        Tracer::Span span(tracer, "adaptive.column");
        adaptiveColumn(tracer, names, base, threads, &json);
    }
    double phaseWall = secondsBetween(phaseStart, Clock::now());

    WorkCounts work;
    double busy = 0.0, instructions = 0.0;
    for (size_t i = 0; i < specs.size(); ++i) {
        work.add(results[i], specs[i].config.nextLinePrefetch);
        busy += runSeconds[i];
        instructions += double(results[i].instructions);
    }
    work.report(m);
    std::vector<double> sorted = runSeconds;
    std::sort(sorted.begin(), sorted.end());

    m["workload.build_s"] = tracer.seconds("workload.build");
    m["workload.builds"] = double(tracer.count("workload.build"));
    m["trace.record_s"] = tracer.seconds("trace.record");
    m["trace.snapshot_mb"] = snapshotBytes / 1e6;
    m["core.classify_s"] = tracer.seconds("core.classify");
    m["core.classify_calls"] = double(tracer.count("core.classify"));
    m["core.sim_busy_s"] = busy;
    m["core.replay_minst_per_s"] = instructions / busy / 1e6;
    m["core.run_p50_ms"] = 1000.0 * median(runSeconds);
    m["core.run_max_ms"] = 1000.0 * sorted.back();
    m["core.pool_idle_frac"] = 1.0 - busy / (double(threads) * gridWall);
    m["adaptive.column_s"] = tracer.seconds("adaptive.column");
    double mb = fileMegabytes(jsonPath);
    m["report.mb"] = mb;
    m["report.record_us"] = 1e6 * tracer.seconds("report.record") /
        double(std::max<uint64_t>(1, tracer.count("report.record")));
    m["report.write_mb_per_s"] = mb / tracer.seconds("report.write");
    m["tracing.untraced_frac"] = 1.0 - tracer.covered / phaseWall;
    m["tracing.wall_s"] = phaseWall;

    Metrics components;
    componentReplay(budget, components);
    for (const auto &[name, value] : components) {
        if (name.rfind("component.", 0) != 0)
            m[name] = value;
    }
    m["core.live_minst_per_s"] = components["component.live_minst_per_s"];
    printMetrics(m);
    return 0;
}

/** SweepService::classificationFor's key: the manifest with the
 *  members a grid varies neutralized. */
SimConfig
neutralConfig(const SimConfig &config)
{
    SimConfig neutral = config;
    neutral.policy = FetchPolicy::Resume;
    neutral.nextLinePrefetch = false;
    neutral.prefetchKind = PrefetchKind::None;
    neutral.adaptiveSelector = SelectorKind::Off;
    return neutral;
}

/** One executed miss as SweepService::executeJob builds it. */
JsonValue
executeMiss(Tracer &tracer, const ServiceRequest &request,
            std::map<std::string, Classification> &cache,
            WorkCounts *work = nullptr,
            std::vector<double> *liveSeconds = nullptr)
{
    SimConfig neutral = neutralConfig(request.config);
    std::string cacheKey = request.benchmark + "|" + toJson(neutral).dump();
    auto it = cache.find(cacheKey);
    if (it == cache.end()) {
        Workload workload = [&] {
            Tracer::Span span(tracer, "workload.build");
            return buildWorkload(getProfile(request.benchmark));
        }();
        Tracer::Span span(tracer, "core.classify");
        it = cache.emplace(cacheKey, classifyMisses(workload, neutral))
                 .first;
    }
    std::shared_ptr<const Workload> shared =
        sharedWorkload(request.benchmark);
    SimResults results;
    {
        Tracer::Span span(tracer, "core.simulate");
        Clock::time_point start = Clock::now();
        results = runSimulation(*shared, request.config);
        if (liveSeconds)
            liveSeconds->push_back(secondsBetween(start, Clock::now()));
    }
    if (work) {
        work->add(results,
                  request.config.effectivePrefetchKind() != PrefetchKind::None);
    }
    Tracer::Span span(tracer, "report.record");
    return makeRunRecord(results, request.config, nullptr, &it->second);
}

std::vector<std::string>
readLines(std::istream &in)
{
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            lines.push_back(line);
    }
    return lines;
}

/** Request lines a serve replay takes from a session: most of one
 *  round of serve_mixed traffic (430 requests), so the replay's six
 *  passes stay within a few seconds. */
constexpr size_t kReplayRequests = 400;

/** Serial replay of @p lines against a copy of the store at
 *  @p storeDir. Returns the replay's wall seconds; fills @p m from the
 *  spans when @p tracer is enabled. */
double
serveReplay(Tracer &tracer, const std::vector<std::string> &lines,
            const std::string &storeDir, Metrics &m)
{
    std::string copy = storeDir + (tracer.enabled ? ".traced" : ".untraced");
    std::filesystem::remove_all(copy);
    std::filesystem::copy(storeDir, copy);

    Clock::time_point start = Clock::now();
    ResultStore store;
    ResultStore::Options options;
    options.dir = copy;
    double openSeconds;
    {
        Tracer::Span span(tracer, "serve.store_open");
        Clock::time_point openStart = Clock::now();
        if (!store.open(options)) {
            std::fprintf(stderr, "perfbench_probe: cannot open %s\n",
                         copy.c_str());
            return 0.0;
        }
        openSeconds = secondsBetween(openStart, Clock::now());
    }
    std::map<std::string, Classification> cache;
    std::vector<double> hitSeconds;
    WorkCounts work;
    std::vector<double> liveSeconds;
    double responseBytes = 0.0;
    uint64_t misses = 0;
    for (const std::string &line : lines) {
        Tracer::Span request(tracer, "serve.request");
        Clock::time_point requestStart = Clock::now();
        ServiceRequest parsed;
        ServiceError error;
        bool ok;
        {
            Tracer::Span span(tracer, "serve.parse");
            ok = parseServiceRequest(line, parsed, error);
        }
        if (!ok)
            continue;
        JsonValue record;
        bool hit;
        {
            Tracer::Span span(tracer, "serve.store_get");
            hit = store.get(parsed.key, record);
        }
        if (!hit) {
            ++misses;
            record = executeMiss(tracer, parsed, cache, &work, &liveSeconds);
            Tracer::Span span(tracer, "serve.store_put");
            store.put(parsed.key, record);
        }
        std::string response;
        {
            Tracer::Span span(tracer, "serve.respond");
            response = makeServiceResponse(parsed.id, parsed.key, hit, record)
                           .dump();
        }
        responseBytes += double(response.size() + 1);
        if (hit)
            hitSeconds.push_back(secondsBetween(requestStart, Clock::now()));
    }
    store.close();
    double wall = secondsBetween(start, Clock::now());
    std::filesystem::remove_all(copy);
    if (!tracer.enabled)
        return wall;

    auto perCall = [&](const char *name) {
        return 1e6 * tracer.seconds(name) /
            double(std::max<uint64_t>(1, tracer.count(name)));
    };
    m["serve.parse_us"] = perCall("serve.parse");
    m["serve.store_get_us"] = perCall("serve.store_get");
    m["serve.hit_us"] = 1e6 * median(hitSeconds);
    m["serve.store_open_s"] = openSeconds;
    m["workload.build_s"] = tracer.seconds("workload.build");
    m["workload.builds"] = double(tracer.count("workload.build"));
    m["core.classify_s"] = tracer.seconds("core.classify");
    m["core.classify_calls"] = double(tracer.count("core.classify"));
    double busy = 0.0;
    for (double seconds : liveSeconds)
        busy += seconds;
    m["core.sim_busy_s"] = busy;
    m["core.live_minst_per_s"] =
        busy > 0.0 ? double(work.instructions) / busy / 1e6 : 0.0;
    m["core.run_p50_ms"] = 1000.0 * median(liveSeconds);
    m["core.run_max_ms"] = liveSeconds.empty()
        ? 0.0
        : 1000.0 * *std::max_element(liveSeconds.begin(), liveSeconds.end());
    m["report.record_us"] = perCall("report.record");
    m["report.mb"] = responseBytes / 1e6;
    m["report.write_mb_per_s"] =
        responseBytes / 1e6 / tracer.seconds("serve.respond");
    if (misses > 0)
        work.report(m);
    return wall;
}

/** Execute the pre-population request @p lines into a fresh store. */
bool
prepopulate(const std::string &dir, const std::vector<std::string> &lines,
            unsigned threads)
{
    std::filesystem::remove_all(dir);
    ResultStore store;
    ResultStore::Options options;
    options.dir = dir;
    if (!store.open(options))
        return false;
    std::mutex mutex;
    parallelFor(lines.size(), threads, [&](size_t i) {
        ServiceRequest request;
        ServiceError error;
        if (!parseServiceRequest(lines[i], request, error))
            return;
        Tracer off(false);
        std::map<std::string, Classification> cache;
        JsonValue record = executeMiss(off, request, cache);
        std::lock_guard<std::mutex> lock(mutex);
        store.put(request.key, record);
    });
    return store.close();
}

int
serveMode(const Args &args)
{
    std::ifstream requestsIn(args.get("requests", ""));
    std::vector<std::string> lines = readLines(requestsIn);
    if (lines.size() > kReplayRequests)
        lines.resize(kReplayRequests);
    std::ifstream prepopIn(args.get("prepop", ""));
    const std::string storeDir = args.get("store", "replay-store");
    const unsigned threads =
        std::max(1u, std::thread::hardware_concurrency());
    if (!prepopulate(storeDir, readLines(prepopIn), threads)) {
        std::fprintf(stderr, "perfbench_probe: cannot build %s\n",
                     storeDir.c_str());
        return 1;
    }

    Metrics m;
    // The same replay without spans (the untraced reference for the
    // tracing overhead) and with them, alternated three times so
    // neither side alone pays the first pass's warm-up; the fastest
    // pass of each side counts, the metrics come from the last traced
    // pass.
    double untraced = 0.0, traced = 0.0, covered = 0.0, last = 0.0;
    for (int round = 0; round < 3; ++round) {
        Tracer off(false), tracer;
        double u = serveReplay(off, lines, storeDir, m);
        last = serveReplay(tracer, lines, storeDir, m);
        covered = tracer.covered;
        untraced = round == 0 ? u : std::min(untraced, u);
        traced = round == 0 ? last : std::min(traced, last);
    }
    std::filesystem::remove_all(storeDir);
    m["tracing.overhead_frac"] = traced / untraced - 1.0;
    m["tracing.untraced_frac"] = 1.0 - covered / last;

    if (!args.has("layers-only")) {
        Metrics components;
        componentReplay(2'000'000, components);
        for (const auto &[name, value] : components) {
            if (name.rfind("component.", 0) != 0)
                m[name] = value;
        }
        // Layers serve_mixed does not reach, measured on their own:
        // the snapshot path on the gcc stream, the adaptive column on
        // one profile.
        m["trace.record_s"] = components["component.record_s"];
        m["trace.snapshot_mb"] = components["component.snapshot_mb"];
        m["core.replay_minst_per_s"] =
            components["component.replay_minst_per_s"];
        Tracer column;
        SimConfig base;
        {
            Tracer::Span span(column, "adaptive.column");
            adaptiveColumn(column, {"gcc"}, base, threads, nullptr);
        }
        m["adaptive.column_s"] = column.seconds("adaptive.column");
    }
    printMetrics(m);
    return 0;
}

/** Re-simulate request lines outside any daemon: one run record (or
 *  an empty line for an unparseable request) per input line. */
int
resimMode()
{
    std::map<std::string, Classification> cache;
    for (const std::string &line : readLines(std::cin)) {
        ServiceRequest request;
        ServiceError error;
        if (!parseServiceRequest(line, request, error)) {
            std::printf("\n");
            continue;
        }
        Tracer off(false);
        std::printf("%s\n", executeMiss(off, request, cache).dump().c_str());
    }
    return 0;
}

/** One blocking client connection to a sweep_serve Unix socket. */
class ServiceConnection
{
  public:
    explicit ServiceConnection(const std::string &path)
    {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un address{};
        address.sun_family = AF_UNIX;
        if (fd < 0 || path.size() >= sizeof(address.sun_path)) {
            ok = false;
            return;
        }
        std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
        ok = ::connect(fd, reinterpret_cast<const sockaddr *>(&address),
                       sizeof(address)) == 0;
    }
    ~ServiceConnection()
    {
        if (fd >= 0)
            ::close(fd);
    }
    ServiceConnection(const ServiceConnection &) = delete;
    ServiceConnection &operator=(const ServiceConnection &) = delete;

    bool connected() const { return ok; }

    /** Send one request line; read its response line into @p response. */
    bool
    exchange(const std::string &line, std::string &response)
    {
        std::string out = line + "\n";
        for (size_t sent = 0; sent < out.size();) {
            ssize_t n = ::write(fd, out.data() + sent, out.size() - sent);
            if (n <= 0)
                return false;
            sent += size_t(n);
        }
        for (;;) {
            size_t end = buffer.find('\n');
            if (end != std::string::npos) {
                response.assign(buffer, 0, end);
                buffer.erase(0, end + 1);
                return true;
            }
            char chunk[65536];
            ssize_t n = ::read(fd, chunk, sizeof(chunk));
            if (n <= 0)
                return false;
            buffer.append(chunk, size_t(n));
        }
    }

  private:
    int fd = -1;
    bool ok = true;
    std::string buffer;
};

/** utime + stime of process @p pid in seconds (0 when unreadable). */
double
processCpuSeconds(long pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    size_t close = stat.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream fields(stat.substr(close + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 0; fields >> field; ++i) {
        if (i == 11)
            utime = std::strtoull(field.c_str(), nullptr, 10);
        if (i == 12) {
            stime = std::strtoull(field.c_str(), nullptr, 10);
            break;
        }
    }
    return double(utime + stime) / double(::sysconf(_SC_CLK_TCK));
}

/**
 * serve_mixed's client. Reads "<phase> <request line>" lines from
 * stdin, phases numbered from 0 in order. Every phase starts on a
 * barrier of all @c --connections threads, each with its own
 * connection; a thread takes the phase's next request when its
 * previous one is answered (a closed loop, at most N outstanding).
 * Prints one line of phase boundaries,
 *   {"marks":[[seconds, daemon cpu seconds], ...]}
 * then, in input order, "<latency seconds> <response line>" per request
 * (latency: send to response). Exit 1 when a connection fails.
 */
int
loadMode(const Args &args)
{
    const std::string path = args.get("socket", "");
    const unsigned connections =
        std::max<unsigned>(1, unsigned(args.count("connections", 1)));
    const long daemonPid = long(args.count("daemon-pid", 0));

    std::vector<std::vector<std::string>> phases;
    for (const std::string &line : readLines(std::cin)) {
        size_t space = line.find(' ');
        size_t phase = std::stoul(line.substr(0, space));
        if (phases.size() <= phase)
            phases.resize(phase + 1);
        phases[phase].push_back(line.substr(space + 1));
    }
    std::vector<std::vector<std::string>> responses(phases.size());
    std::vector<std::vector<double>> latencies(phases.size());
    for (size_t p = 0; p < phases.size(); ++p) {
        responses[p].resize(phases[p].size());
        latencies[p].resize(phases[p].size());
    }

    Clock::time_point origin = Clock::now();
    std::vector<std::pair<double, double>> marks;
    auto mark = [&]() noexcept {
        marks.emplace_back(secondsBetween(origin, Clock::now()),
                           daemonPid ? processCpuSeconds(daemonPid) : 0.0);
    };
    std::barrier sync(std::ptrdiff_t(connections), mark);
    std::vector<std::atomic<size_t>> next(phases.size());
    std::atomic<bool> failed{false};

    auto client = [&]() {
        ServiceConnection link(path);
        if (!link.connected())
            failed = true;
        for (size_t p = 0; p < phases.size(); ++p) {
            sync.arrive_and_wait();
            for (;;) {
                size_t i = next[p]++;
                if (i >= phases[p].size() || failed)
                    break;
                Clock::time_point sent = Clock::now();
                if (!link.exchange(phases[p][i], responses[p][i])) {
                    failed = true;
                    break;
                }
                latencies[p][i] = secondsBetween(sent, Clock::now());
            }
        }
        sync.arrive_and_wait();
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < connections; ++c)
        threads.emplace_back(client);
    for (std::thread &thread : threads)
        thread.join();
    if (failed) {
        std::fprintf(stderr, "perfbench_probe: connection to %s failed\n",
                     path.c_str());
        return 1;
    }

    std::printf("{\"marks\":[");
    for (size_t m = 0; m < marks.size(); ++m) {
        std::printf("%s[%.9f,%.4f]", m ? "," : "", marks[m].first,
                    marks[m].second);
    }
    std::printf("]}\n");
    for (size_t p = 0; p < phases.size(); ++p) {
        for (size_t i = 0; i < phases[p].size(); ++i) {
            std::printf("%.9f %s\n", latencies[p][i],
                        responses[p][i].c_str());
        }
    }
    return 0;
}

/** Fixed host work: a dependent xorshift chain plus a strided walk of
 *  a 32 MB table, median of five. */
int
calibMode()
{
    std::vector<uint64_t> table(1 << 22);
    for (size_t i = 0; i < table.size(); ++i)
        table[i] = i * 0x9E3779B97F4A7C15ull;
    volatile uint64_t sink = 0;
    double seconds = timeBest(5, [&] {
        uint64_t x = 0x2545F4914F6CDD1Dull;
        for (int i = 0; i < 20'000'000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        uint64_t index = 0;
        for (int i = 0; i < 2'000'000; ++i)
            index = (table[index & (table.size() - 1)] + x) >> 20;
        sink = x + index;
    });
    (void)sink;
    std::printf("{\"calib_s\":%.9g}\n", seconds);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string mode = argc > 1 ? argv[1] : "";
    Args args(argc, argv, 2);
    if (mode == "grid")
        return gridMode(args);
    if (mode == "serve")
        return serveMode(args);
    if (mode == "resim")
        return resimMode();
    if (mode == "load")
        return loadMode(args);
    if (mode == "calib")
        return calibMode();
    if (mode == "names") {
        for (const std::string &name : benchmarkNames())
            std::printf("%s\n", name.c_str());
        return 0;
    }
    std::fprintf(stderr,
                 "usage: perfbench_probe grid|serve|resim|load|calib|names "
                 "[options]\n");
    return 1;
}
