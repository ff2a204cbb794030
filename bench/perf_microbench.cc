/**
 * @file
 * Self-timed perf-regression harness for the simulator itself. It
 * times the stages the sweep pipeline is built from — workload
 * construction, the live executor, snapshot record, snapshot replay,
 * a live and a replayed full simulation, and a 10-spec policy grid —
 * and reports each as a throughput (work units per second, best of
 * --repeats wall-clock measurements).
 *
 * With --json it appends one schema-v1 "perf" record per stage:
 *
 *   {"schema_version":1,"record":"perf","stage":"sim_replay",
 *    "unit":"instructions","work":2000000,"seconds":0.05,
 *    "rate":4.0e7}
 *
 * preceded by one "perf_meta" record naming the benchmark, budget and
 * repeat count so a comparison (tools/perf_compare.py) can refuse to
 * diff runs measured under different settings. These guard the
 * "hundreds of millions of instructions per experiment" wall-clock
 * budget the table harnesses rely on; CI runs this as a warn-only
 * smoke check against bench/perf_baseline.json.
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
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include <unistd.h>

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

/** The chosen statistic over @p repeats timed runs of @p fn. */
template <typename Fn>
double
measure(unsigned repeats, Stat stat, Fn &&fn)
{
    std::vector<double> samples;
    samples.reserve(repeats);
    for (unsigned i = 0; i < repeats; ++i)
        samples.push_back(timeOnce(fn));
    std::sort(samples.begin(), samples.end());
    if (stat == Stat::Best)
        return samples.front();
    const size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/** One measured stage, ready to print and export. */
struct StageResult
{
    std::string stage;
    std::string unit;
    uint64_t work = 0;
    double seconds = 0.0;

    double
    rate() const
    {
        return seconds > 0.0 ? static_cast<double>(work) / seconds : 0.0;
    }
};

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
    return rec;
}

/** Defeat dead-code elimination without a compiler intrinsic. */
volatile uint64_t gSink = 0;

} // namespace

int
main(int argc, char **argv)
{
    OptionParser opts("perf_microbench",
                      "Time the simulator's pipeline stages and emit "
                      "schema-v1 perf records for regression tracking");
    opts.addCount("budget", benchBudget(2'000'000),
                  "instructions per stage (default honours "
                  "SPECFETCH_BUDGET)");
    opts.addCount("repeats", 3, "timed repetitions per stage");
    opts.addString("stat", "best",
                   "statistic over the repeats: 'best' (minimum; local "
                   "A/B runs) or 'median' (the gated CI comparison)");
    opts.addString("benchmark", "gcc", "workload profile to measure");
    opts.addString("json", "", "append schema-v1 perf records to this path");
    opts.addCount("sample-interval", 0,
                  "arm the interval sampler on the simulation stages "
                  "(0 = off; measures its overhead, see "
                  "tools/perf_compare.py --overhead)");
    opts.addFlag("serve-stage",
                 "also time the sweep service's store-hit path "
                 "(stage serve_hit; kept off the default stage list so "
                 "historical baselines keep their shape)");
    opts.addFlag("metrics",
                 "arm a MetricsRegistry on the serve stage (measures "
                 "instrumentation overhead, see tools/perf_compare.py "
                 "--metrics-overhead)");
    if (!opts.parse(argc, argv))
        return 1;

    const uint64_t budget = opts.getCount("budget");
    const unsigned repeats = static_cast<unsigned>(
        std::max<uint64_t>(1, opts.getCount("repeats")));
    const std::string benchmark = opts.getString("benchmark");
    const uint64_t sampleInterval = opts.getCount("sample-interval");
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
    // Arms the sampler on sim_live/sim_replay/grid only; the epochs
    // are collected and dropped — this harness measures cost, not
    // content.
    base.sampleInterval = sampleInterval;

    std::vector<StageResult> results;

    // Stage: build the workload CFG from its profile (what sweeps pay
    // once per benchmark thanks to sharedWorkload()).
    {
        StageResult r{"workload_build", "builds", 1, 0.0};
        r.seconds = measure(repeats, stat, [&] {
            Workload w = buildWorkload(getProfile(benchmark));
            gSink = gSink + w.image.size();
        });
        results.push_back(r);
    }

    // Stage: the live architectural executor alone, stepped through
    // next() (live runs and the recorder take its block bodies in
    // bulk and step only the terminators).
    {
        StageResult r{"executor_step", "instructions", budget, 0.0};
        r.seconds = measure(repeats, stat, [&] {
            Executor executor(workload.cfg, base.runSeed);
            DynInst inst;
            uint64_t sum = 0;
            for (uint64_t i = 0; i < budget; ++i) {
                executor.next(inst);
                sum += inst.pc;
            }
            gSink = gSink + sum;
        });
        results.push_back(r);
    }

    // Stage: recording a correct-path snapshot from the executor.
    {
        StageResult r{"snapshot_record", "instructions", budget, 0.0};
        r.seconds = measure(repeats, stat, [&] {
            Executor executor(workload.cfg, base.runSeed);
            TraceSnapshot snap = TraceSnapshot::record(executor, budget);
            gSink = gSink + snap.byteSize();
        });
        results.push_back(r);
    }

    // Stage: replaying that snapshot through the replay cursor alone
    // (upper bound on how fast any replayed simulation can consume
    // its stream).
    Executor recorder(workload.cfg, base.runSeed);
    const TraceSnapshot snapshot = TraceSnapshot::record(recorder, budget);
    {
        StageResult r{"snapshot_replay", "instructions", budget, 0.0};
        r.seconds = measure(repeats, stat, [&] {
            SnapshotReplaySource source(snapshot);
            DynInst inst;
            uint64_t sum = 0;
            while (source.next(inst))
                sum += inst.pc;
            gSink = gSink + sum;
        });
        results.push_back(r);
    }

    // Stage: one full simulation fed by the live executor.
    {
        StageResult r{"sim_live", "instructions", budget, 0.0};
        r.seconds = measure(repeats, stat, [&] {
            SimResults res = runSimulation(workload, base);
            gSink = gSink + res.finalSlot;
        });
        results.push_back(r);
    }

    // Stage: the same simulation fed by the recorded snapshot (the
    // sweep fast path; results are bit-identical to sim_live).
    {
        StageResult r{"sim_replay", "instructions", budget, 0.0};
        r.seconds = measure(repeats, stat, [&] {
            SimResults res = runSimulation(workload, base, snapshot);
            gSink = gSink + res.finalSlot;
        });
        results.push_back(r);
    }

    // Stage: sim_live with the adaptive decision point armed via a
    // StaticSelector — the selector always re-picks the base policy,
    // so the wall-clock delta against sim_live is pure epoch-ticker
    // and choice-log bookkeeping, not policy-behavior differences
    // (tools/perf_compare.py --adaptive-overhead bounds it).
    {
        SimConfig adaptive = base;
        adaptive.adaptiveSelector = SelectorKind::Static;
        adaptive.adaptiveInterval = 50'000;
        StageResult r{"sim_adaptive", "instructions", budget, 0.0};
        r.seconds = measure(repeats, stat, [&] {
            SimResults res = runSimulation(workload, adaptive);
            gSink = gSink + res.finalSlot;
        });
        results.push_back(r);
    }

    // Stage: a serial 10-spec grid (5 policies x prefetch off/on) on
    // one benchmark — the record-once/replay-many sweep path end to
    // end, including the snapshot-record stage it amortizes.
    {
        std::vector<RunSpec> specs;
        for (int p = 0; p < 5; ++p) {
            for (int pf = 0; pf < 2; ++pf) {
                SimConfig config = base;
                config.policy = static_cast<FetchPolicy>(p);
                config.nextLinePrefetch = pf != 0;
                specs.push_back(RunSpec{benchmark, config});
            }
        }
        StageResult r{"grid", "instructions", budget * specs.size(), 0.0};
        r.seconds = measure(repeats, stat, [&] {
            std::vector<SimResults> res = runSweep(specs, 1);
            gSink = gSink + res.back().finalSlot;
        });
        results.push_back(r);
    }

    // Stage (opt-in): the sweep service's hot request path — a store
    // hit answered inline from submit(). One miss pre-populates the
    // store; the timed loop then measures parse + lookup + building
    // the response line per request, with or without telemetry armed
    // (--metrics), which is exactly the delta the ≤3% overhead gate
    // bounds.
    if (opts.getFlag("serve-stage")) {
        constexpr uint64_t kServeRequests = 2000;
        MetricsRegistry registry;
        MetricsRegistry *metricsPtr =
            opts.getFlag("metrics") ? &registry : nullptr;
        char dirTemplate[] = "/tmp/specfetch-perf-serve-XXXXXX";
        if (!::mkdtemp(dirTemplate)) {
            std::fprintf(stderr, "error: mkdtemp failed\n");
            return 1;
        }
        const std::string storeDir = dirTemplate;
        {
            ResultStore store;
            ResultStore::Options storeOptions;
            storeOptions.dir = storeDir;
            storeOptions.metrics = metricsPtr;
            std::string error;
            if (!store.open(storeOptions, &error)) {
                std::fprintf(stderr, "error: %s\n", error.c_str());
                return 1;
            }
            SweepService::Options serviceOptions;
            serviceOptions.workers = 1;
            serviceOptions.metrics = metricsPtr;
            SweepService service(store, serviceOptions);
            service.start();

            const std::string line =
                "{\"benchmark\":\"" + benchmark +
                "\",\"config\":{\"instruction_budget\":" +
                std::to_string(std::min<uint64_t>(budget, 50'000)) +
                "}}";
            std::mutex doneMutex;
            std::condition_variable doneWake;
            uint64_t answered = 0;
            auto responder = [&](const std::string &) {
                std::lock_guard<std::mutex> lock(doneMutex);
                ++answered;
                doneWake.notify_all();
            };
            service.submit(line, responder); // miss: populate the store
            {
                std::unique_lock<std::mutex> lock(doneMutex);
                doneWake.wait(lock, [&] { return answered >= 1; });
            }

            StageResult r{"serve_hit", "requests", kServeRequests, 0.0};
            r.seconds = measure(repeats, stat, [&] {
                for (uint64_t i = 0; i < kServeRequests; ++i)
                    service.submit(line, responder);
            });
            {
                std::unique_lock<std::mutex> lock(doneMutex);
                doneWake.wait(lock, [&] {
                    return answered >= 1 + kServeRequests * repeats;
                });
            }
            gSink = gSink + answered;
            results.push_back(r);
            service.drain();
            store.close(nullptr);
        }
        // Best-effort cleanup of the scratch store.
        std::string cleanup = "rm -rf '" + storeDir + "'";
        if (std::system(cleanup.c_str()) != 0)
            std::fprintf(stderr, "warning: could not remove %s\n",
                         storeDir.c_str());
    }

    std::printf("perf_microbench: %s, budget %llu, %s of %u\n",
                benchmark.c_str(),
                static_cast<unsigned long long>(budget),
                statName.c_str(), repeats);
    std::printf("%-16s %14s %12s %16s\n", "stage", "work", "seconds",
                "rate/s");
    for (const StageResult &r : results) {
        std::printf("%-16s %14llu %12.6f %16.0f\n", r.stage.c_str(),
                    static_cast<unsigned long long>(r.work), r.seconds,
                    r.rate());
    }

    if (writer) {
        JsonValue meta = JsonValue::object();
        meta.set("schema_version", JsonValue::integer(kReportSchemaVersion));
        meta.set("record", JsonValue::string("perf_meta"));
        meta.set("benchmark", JsonValue::string(benchmark));
        meta.set("budget", JsonValue::integer(budget));
        meta.set("repeats", JsonValue::integer(repeats));
        meta.set("stat", JsonValue::string(statName));
        // Kept conditional so baselines measured without the sampler
        // keep their historical shape.
        if (sampleInterval > 0)
            meta.set("sample_interval", JsonValue::integer(sampleInterval));
        // Same contract for the serve stage: the overhead comparison
        // (tools/perf_compare.py --metrics-overhead) demands proof of
        // which side had telemetry armed.
        if (opts.getFlag("serve-stage"))
            meta.set("metrics",
                     JsonValue::boolean(opts.getFlag("metrics")));
        writer->write(meta);
        for (const StageResult &r : results)
            writer->write(toRecord(r));
        std::printf("%zu perf records -> %s\n", results.size() + 1,
                    writer->path().c_str());
    }
    return 0;
}
