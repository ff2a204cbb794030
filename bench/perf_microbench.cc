/**
 * @file
 * Self-timed perf-regression harness for the simulator itself. It
 * times the stages the sweep pipeline is built from — workload
 * construction, the live executor, snapshot record, snapshot replay,
 * a live and a replayed full simulation, a 10-spec policy grid and the
 * sweep service's store-hit path — and reports each as a throughput
 * (work units per second).
 *
 * Some stages are *twins*: a base stage's work with one thing armed —
 * the interval sampler (sim_live_sampled, sim_replay_sampled,
 * grid_sampled), the adaptive decision point (sim_adaptive) or the
 * service's telemetry (serve_hit_metrics). A twin runs in the same
 * process as its base, once per repeat beside it, alternating which of
 * the two runs first, so its overhead is read from pairs timed moments
 * apart rather than from two processes.
 *
 * With --json it writes (truncating the file) one "perf_meta" record
 * naming the benchmark, budget, repeat count and statistic, then one
 * schema-v1 "perf" record per stage:
 *
 *   {"schema_version":1,"record":"perf","stage":"sim_replay",
 *    "unit":"instructions","work":2000000,"seconds":0.05,
 *    "rate":4.0e7}
 *
 * A twin's record also names its base stage, its overhead bound and
 * the median over repeats of its rate divided by the base's rate in
 * the same repeat:
 *
 *   {..."stage":"sim_replay_sampled",...,"base":"sim_replay",
 *    "bound":0.05,"ratio":0.998}
 *
 * tools/perf_compare.py reads one such file as the pair check (each
 * twin's overhead, 1 - ratio, against its bound) and two as the
 * throughput gate. CI's perf-gate job builds this harness from HEAD and
 * from its merge base, runs the two alternately and gates HEAD's
 * medians against the base's.
 *
 * Timing methodology (README "Performance methodology"): every stage
 * runs --repeats times and one statistic is kept — the minimum by
 * default (the least-contended observation; right for quick local A/B
 * runs) or the median with --stat median (robust against outliers in
 * both directions; what the gated CI comparison uses with >= 5
 * repeats). Stages run strictly sequentially, never overlapped.
 */

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/simulator.hh"
#include "core/sweep.hh"
#include "metrics/metrics.hh"
#include "report/json.hh"
#include "report/record.hh"
#include "report/report.hh"
#include "serve/result_store.hh"
#include "serve/service.hh"
#include "trace/snapshot.hh"
#include "util/options.hh"
#include "workload/executor.hh"
#include "workload/registry.hh"
#include "workload/workload.hh"

using namespace specfetch;

namespace {

/** The sampled twins' epoch length, in instructions. */
constexpr uint64_t kSampleInterval = 10'000;
/** Overhead bounds, as a fraction of the base stage's rate: the
 *  sampler (DESIGN.md §11), the adaptive decision point (§12) and the
 *  service's telemetry (§16). */
constexpr double kSamplerBound = 0.05;
constexpr double kAdaptiveBound = 0.03;
constexpr double kMetricsBound = 0.03;

/** Seconds elapsed running @p fn once. */
template <typename Fn>
double
timeOnce(Fn &&fn)
{
    auto begin = std::chrono::steady_clock::now();
    fn();
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - begin).count();
}

/** Which statistic summarises the repeated timings of a stage. */
enum class Stat
{
    /** Minimum: the least-contended observation; the stable statistic
     *  for quick local A/B runs. */
    Best,
    /** Median: robust to the occasional fast outlier as well as the
     *  slow ones; what the gated CI comparison uses, with enough
     *  repeats to make it meaningful (>= 5). */
    Median,
};

/** Median of @p values (the mean of the middle two for an even
 *  count). */
double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** A stage to time: its name, what one run of @p body does, and for a
 *  twin its overhead bound. */
struct Stage
{
    std::string name;
    std::string unit;
    uint64_t work = 0;
    std::function<void()> body;
    double bound = 0.0;
};

/** One measured stage, ready to print and export. */
struct StageResult
{
    std::string stage;
    std::string unit;
    uint64_t work = 0;
    double seconds = 0.0;
    /** A twin's base stage; empty for a stage of its own. */
    std::string base;
    double bound = 0.0;
    /** Median over repeats of this twin's rate / its base's rate. */
    double ratio = 0.0;

    double
    rate() const
    {
        return seconds > 0.0 ? static_cast<double>(work) / seconds : 0.0;
    }
};

/**
 * Time @p base and each of its @p twins once per repeat, reversing
 * their order every other repeat so no side always runs first, and
 * append their results, base first, to @p out.
 */
void
measure(unsigned repeats, Stat stat, const Stage &base,
        const std::vector<Stage> &twins, std::vector<StageResult> &out)
{
    std::vector<const Stage *> group{&base};
    for (const Stage &twin : twins)
        group.push_back(&twin);
    std::vector<std::vector<double>> samples(group.size());
    for (unsigned r = 0; r < repeats; ++r) {
        for (size_t k = 0; k < group.size(); ++k) {
            const size_t i = r % 2 == 0 ? k : group.size() - 1 - k;
            samples[i].push_back(timeOnce(group[i]->body));
        }
    }
    for (size_t i = 0; i < group.size(); ++i) {
        const Stage &stage = *group[i];
        const double seconds =
            stat == Stat::Best
                ? *std::min_element(samples[i].begin(), samples[i].end())
                : median(samples[i]);
        std::vector<double> ratios;
        for (unsigned k = 0; i > 0 && k < repeats; ++k)
            ratios.push_back(samples[0][k] / samples[i][k]);
        out.push_back({stage.name, stage.unit, stage.work, seconds,
                       i > 0 ? base.name : "", stage.bound,
                       i > 0 ? median(ratios) : 0.0});
    }
}

JsonValue
toRecord(const StageResult &r)
{
    JsonValue rec = JsonValue::object();
    rec.set("schema_version", JsonValue::integer(kReportSchemaVersion));
    rec.set("record", JsonValue::string("perf"));
    rec.set("stage", JsonValue::string(r.stage));
    rec.set("unit", JsonValue::string(r.unit));
    rec.set("work", JsonValue::integer(r.work));
    rec.set("seconds", JsonValue::number(r.seconds));
    rec.set("rate", JsonValue::number(r.rate()));
    if (!r.base.empty()) {
        rec.set("base", JsonValue::string(r.base));
        rec.set("bound", JsonValue::number(r.bound));
        rec.set("ratio", JsonValue::number(r.ratio));
    }
    return rec;
}

/** Defeat dead-code elimination without a compiler intrinsic. */
volatile uint64_t gSink = 0;

/**
 * A sweep service over a scratch store of its own that holds one
 * record, so every submit of its request line is a store hit answered
 * inline from submit(): parse, lookup and building the response line.
 * With a registry, the store and the service both report to it.
 */
class HitServer
{
  public:
    HitServer(std::string requestLine, MetricsRegistry *registry)
        : line(std::move(requestLine)), metrics(registry)
    {}

    HitServer(const HitServer &) = delete;
    HitServer &operator=(const HitServer &) = delete;

    ~HitServer()
    {
        if (service)
            service->drain();
        store.close(nullptr);
        std::error_code ignored;
        if (!dir.empty())
            std::filesystem::remove_all(dir, ignored);
    }

    /** Open the store and answer the one miss that fills it. */
    bool
    start(std::string *error)
    {
        char dirTemplate[] = "/tmp/specfetch-perf-serve-XXXXXX";
        if (!::mkdtemp(dirTemplate)) {
            *error = "mkdtemp failed";
            return false;
        }
        dir = dirTemplate;
        ResultStore::Options storeOptions;
        storeOptions.dir = dir;
        storeOptions.metrics = metrics;
        if (!store.open(storeOptions, error))
            return false;
        SweepService::Options serviceOptions;
        serviceOptions.workers = 1;
        serviceOptions.metrics = metrics;
        service = std::make_unique<SweepService>(store, serviceOptions);
        service->start();
        submit(1);
        waitAnswered(1);
        return true;
    }

    void
    submit(uint64_t requests)
    {
        for (uint64_t i = 0; i < requests; ++i)
            service->submit(line, [this](const std::string &) {
                std::lock_guard<std::mutex> lock(mutex);
                ++answered;
                wake.notify_all();
            });
    }

    void
    waitAnswered(uint64_t requests)
    {
        std::unique_lock<std::mutex> lock(mutex);
        wake.wait(lock, [&] { return answered >= requests; });
    }

  private:
    const std::string line;
    MetricsRegistry *const metrics;
    std::string dir;
    ResultStore store;
    std::unique_ptr<SweepService> service;
    std::mutex mutex;
    std::condition_variable wake;
    uint64_t answered = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    OptionParser opts("perf_microbench",
                      "Time the simulator's pipeline stages, each "
                      "overhead beside its base stage, and emit "
                      "schema-v1 perf records for regression tracking");
    opts.addCount("budget", benchBudget(2'000'000),
                  "instructions per stage (default honours "
                  "SPECFETCH_BUDGET)");
    opts.addCount("repeats", 3, "timed repetitions per stage");
    opts.addString("stat", "best",
                   "statistic over the repeats: 'best' (minimum; local "
                   "A/B runs) or 'median' (the gated CI comparison)");
    opts.addString("benchmark", "gcc", "workload profile to measure");
    opts.addString("json", "",
                   "write schema-v1 perf records to this path "
                   "(truncating it)");
    if (!opts.parse(argc, argv))
        return 1;

    const uint64_t budget = opts.getCount("budget");
    const unsigned repeats = static_cast<unsigned>(
        std::max<uint64_t>(1, opts.getCount("repeats")));
    const std::string benchmark = opts.getString("benchmark");
    const std::string statName = opts.getString("stat");
    if (statName != "best" && statName != "median") {
        std::fprintf(stderr, "error: --stat must be 'best' or 'median', "
                     "not '%s'\n", statName.c_str());
        return 1;
    }
    const Stat stat = statName == "median" ? Stat::Median : Stat::Best;

    // Open the sink before spending minutes measuring.
    std::unique_ptr<JsonlWriter> writer;
    if (!opts.getString("json").empty()) {
        writer = std::make_unique<JsonlWriter>(opts.getString("json"));
        if (!writer->ok()) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         opts.getString("json").c_str());
            return 1;
        }
    }

    const Workload &workload = *sharedWorkload(benchmark);
    SimConfig base;
    base.instructionBudget = budget;
    // The sampled twins collect their epochs and drop them: this
    // harness measures cost, not content.
    SimConfig sampled = base;
    sampled.sampleInterval = kSampleInterval;
    // A StaticSelector always re-picks the base policy, so the
    // adaptive twin's delta is pure epoch-ticker and choice-log
    // bookkeeping, not policy-behavior differences.
    SimConfig adaptive = base;
    adaptive.adaptiveSelector = SelectorKind::Static;
    adaptive.adaptiveInterval = 50'000;

    std::vector<StageResult> results;
    auto run = [&](const Stage &stage,
                   const std::vector<Stage> &twins = {}) {
        measure(repeats, stat, stage, twins, results);
    };

    // Stage: build the workload CFG from its profile (what sweeps pay
    // once per benchmark thanks to sharedWorkload()).
    run({"workload_build", "builds", 1, [&] {
             Workload w = buildWorkload(getProfile(benchmark));
             gSink = gSink + w.image.size();
         }});

    // Stage: the live architectural executor alone, stepped through
    // next() (live runs and the recorder take its block bodies in
    // bulk and step only the terminators).
    run({"executor_step", "instructions", budget, [&] {
             Executor executor(workload.cfg, base.runSeed);
             DynInst inst;
             uint64_t sum = 0;
             for (uint64_t i = 0; i < budget; ++i) {
                 executor.next(inst);
                 sum += inst.pc;
             }
             gSink = gSink + sum;
         }});

    // Stage: recording a correct-path snapshot from the executor.
    run({"snapshot_record", "instructions", budget, [&] {
             Executor executor(workload.cfg, base.runSeed);
             TraceSnapshot snap = TraceSnapshot::record(executor, budget);
             gSink = gSink + snap.byteSize();
         }});

    // Stage: replaying that snapshot through the replay cursor alone
    // (upper bound on how fast any replayed simulation can consume
    // its stream).
    Executor recorder(workload.cfg, base.runSeed);
    const TraceSnapshot snapshot = TraceSnapshot::record(recorder, budget);
    run({"snapshot_replay", "instructions", budget, [&] {
             SnapshotReplaySource source(snapshot);
             DynInst inst;
             uint64_t sum = 0;
             while (source.next(inst))
                 sum += inst.pc;
             gSink = gSink + sum;
         }});

    // Stage: one full simulation fed by the live executor, beside its
    // sampled and adaptive twins.
    auto live = [&](const SimConfig &config) {
        return [&workload, config] {
            SimResults res = runSimulation(workload, config);
            gSink = gSink + res.finalSlot;
        };
    };
    run({"sim_live", "instructions", budget, live(base)},
        {{"sim_live_sampled", "instructions", budget, live(sampled),
          kSamplerBound},
         {"sim_adaptive", "instructions", budget, live(adaptive),
          kAdaptiveBound}});

    // Stage: the same simulation fed by the recorded snapshot (the
    // sweep fast path; results are bit-identical to sim_live).
    auto replayed = [&](const SimConfig &config) {
        return [&workload, &snapshot, config] {
            SimResults res = runSimulation(workload, config, snapshot);
            gSink = gSink + res.finalSlot;
        };
    };
    run({"sim_replay", "instructions", budget, replayed(base)},
        {{"sim_replay_sampled", "instructions", budget, replayed(sampled),
          kSamplerBound}});

    // Stage: a serial 10-spec grid (5 policies x prefetch off/on) on
    // one benchmark — the record-once/replay-many sweep path end to
    // end, including the snapshot-record stage it amortizes.
    auto grid = [&](const SimConfig &config) {
        std::vector<RunSpec> specs;
        for (int p = 0; p < 5; ++p) {
            for (int pf = 0; pf < 2; ++pf) {
                SimConfig spec = config;
                spec.policy = static_cast<FetchPolicy>(p);
                spec.nextLinePrefetch = pf != 0;
                specs.push_back(RunSpec{benchmark, spec});
            }
        }
        return [specs] {
            std::vector<SimResults> res = runSweep(specs, 1);
            gSink = gSink + res.back().finalSlot;
        };
    };
    run({"grid", "instructions", budget * 10, grid(base)},
        {{"grid_sampled", "instructions", budget * 10, grid(sampled),
          kSamplerBound}});

    // Stage: the sweep service's hot request path — a store hit —
    // beside the same path with telemetry armed.
    {
        constexpr uint64_t kServeRequests = 2000;
        const std::string line =
            "{\"benchmark\":\"" + benchmark +
            "\",\"config\":{\"instruction_budget\":" +
            std::to_string(std::min<uint64_t>(budget, 50'000)) + "}}";
        MetricsRegistry registry;
        HitServer plain(line, nullptr);
        HitServer metered(line, &registry);
        std::string error;
        if (!plain.start(&error) || !metered.start(&error)) {
            std::fprintf(stderr, "error: %s\n", error.c_str());
            return 1;
        }
        run({"serve_hit", "requests", kServeRequests,
             [&] { plain.submit(kServeRequests); }},
            {{"serve_hit_metrics", "requests", kServeRequests,
              [&] { metered.submit(kServeRequests); }, kMetricsBound}});
        plain.waitAnswered(1 + kServeRequests * repeats);
        metered.waitAnswered(1 + kServeRequests * repeats);
    }

    std::printf("perf_microbench: %s, budget %llu, %s of %u\n",
                benchmark.c_str(),
                static_cast<unsigned long long>(budget),
                statName.c_str(), repeats);
    std::printf("%-20s %14s %12s %16s %9s\n", "stage", "work", "seconds",
                "rate/s", "overhead");
    for (const StageResult &r : results) {
        std::printf("%-20s %14llu %12.6f %16.0f", r.stage.c_str(),
                    static_cast<unsigned long long>(r.work), r.seconds,
                    r.rate());
        if (r.base.empty())
            std::printf("\n");
        else
            std::printf(" %+8.1f%%\n", 100.0 * (1.0 - r.ratio));
    }

    if (writer) {
        JsonValue meta = JsonValue::object();
        meta.set("schema_version", JsonValue::integer(kReportSchemaVersion));
        meta.set("record", JsonValue::string("perf_meta"));
        meta.set("benchmark", JsonValue::string(benchmark));
        meta.set("budget", JsonValue::integer(budget));
        meta.set("repeats", JsonValue::integer(repeats));
        meta.set("stat", JsonValue::string(statName));
        writer->write(meta);
        for (const StageResult &r : results)
            writer->write(toRecord(r));
        std::printf("%zu perf records -> %s\n", results.size() + 1,
                    writer->path().c_str());
    }
    return 0;
}
