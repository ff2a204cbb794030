/**
 * @file
 * The cross-PR trajectory runner: executes the full paper grid — all
 * 13 workload profiles × 5 fetch policies × {prefetch off, next-line
 * prefetch} — at a small fixed budget and exports one schema-v1 JSONL
 * record per run, each carrying the configuration manifest, every raw
 * counter, the ISPI decomposition, the workload's Table-4 miss
 * classification, and per-run wall-clock timing.
 *
 *   ./build/bench/bench_suite --json out.json
 *   ./build/bench/bench_suite                 # writes BENCH_results.json
 *   ./build/bench/bench_suite --store runs/   # resumable: rerun resumes
 *   ./build/bench/bench_suite --store unix:sweep.sock   # via sweep_serve
 *
 * The output is what `BENCH_*.json` trajectory tracking consumes: 130
 * records whose counters are bit-reproducible for a given budget and
 * seed, with only the `timing` member varying between machines.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string_view>
#include <thread>
#include <utility>

#include "adaptive/oracle.hh"
#include "bench_support.hh"
#include "serve/result_store.hh"
#include "serve/socket.hh"
#include "util/logging.hh"

using namespace specfetch;
using namespace specfetch::bench;

namespace {

/** Small default so the full grid stays CI-friendly. */
constexpr uint64_t kSuiteBudget = 500'000;

/** The command that reruns the grid against the same store. */
std::string
rerunCommand()
{
    return "bench_suite --store=" + benchMain().storePath +
           " --budget=" + std::to_string(benchMain().budget);
}

/**
 * Emit a --store grid: the run records in grid order (JSON null = no
 * record), then a trailing manifest naming what ran and what failed.
 * Both are free of timing and resumed-run counts, so a clean sweep, a
 * resumed one and a daemon-served one write identical bytes.
 */
void
emitGrid(const std::vector<RunSpec> &specs,
         const std::vector<JsonValue> &records,
         const std::vector<SweepFailure> &failures)
{
    for (const JsonValue &record : records) {
        if (!record.isNull())
            benchMain().emit(record);
    }
    JsonValue entries = JsonValue::array();
    for (const SweepFailure &failure : failures) {
        JsonValue entry = JsonValue::object();
        entry.set("index", JsonValue::integer(failure.index));
        entry.set("benchmark", JsonValue::string(failure.benchmark));
        entry.set("config", JsonValue::string(failure.config));
        entry.set("cause", JsonValue::string(failure.cause));
        entry.set("attempts", JsonValue::integer(failure.attempts));
        entry.set("rerun", JsonValue::string(rerunCommand()));
        entries.push(entry);
    }
    JsonValue manifest = JsonValue::object();
    manifest.set("schema_version", JsonValue::integer(kReportSchemaVersion));
    manifest.set("record", JsonValue::string("sweep_manifest"));
    manifest.set("runs", JsonValue::integer(specs.size()));
    manifest.set("completed",
                 JsonValue::integer(specs.size() - failures.size()));
    manifest.set("failures", entries);
    benchMain().emit(manifest);
}

/**
 * Store-directory mode (--store DIR): the grid runs in-process against
 * a ResultStore. Stored runs are emitted as stored; the rest run behind
 * the guard (--retries, --run-timeout, --fault-inject) and are put the
 * moment they complete, so a killed sweep rerun with the same command
 * picks up where it died and writes the same bytes.
 */
int
runStoreDir(const std::vector<RunSpec> &specs)
{
    BenchMain &bm = benchMain();
    ResultStore::Options storeOptions;
    storeOptions.dir = bm.storePath;
    storeOptions.injector = bm.guard.injector;
    ResultStore store;
    std::string error;
    if (!store.open(storeOptions, &error)) {
        std::fprintf(stderr, "bench_suite: --store: %s\n", error.c_str());
        return 1;
    }

    SweepOptions options;
    options.parallelism = bm.parallelism;
    options.guard = bm.guard;
    bm.beginProgress(specs.size());
    StoreSweepResult sweep = runStoreSweep(
        store, specs, options,
        [&](size_t index, const SimResults &results,
            const Classification &classification) {
            return makeRunRecord(results, specs[index].config, nullptr,
                                 &classification);
        });
    bm.endProgress();

    emitGrid(specs, sweep.records, sweep.failures);
    std::printf("\n%zu runs (%zu resumed from %s, %zu executed), "
                "%zu quarantined; %zu records -> %s\n",
                specs.size(), sweep.resumedRuns, bm.storePath.c_str(),
                sweep.executedRuns, sweep.failures.size(),
                bm.jsonRecords(), bm.jsonPath.c_str());
    for (const SweepFailure &failure : sweep.failures) {
        std::printf("  quarantined run %zu (%s): %s after %u attempts\n"
                    "    rerun: %s\n",
                    failure.index, failure.benchmark.c_str(),
                    failure.cause.c_str(), failure.attempts,
                    rerunCommand().c_str());
    }
    if (!store.close(&error)) {
        std::fprintf(stderr, "bench_suite: --store: %s\n", error.c_str());
        return 1;
    }
    // Quarantine is the success path of fault tolerance: the sweep
    // finished and said exactly what it could not do.
    return 0;
}

/** The --store prefix naming a sweep_serve socket. */
constexpr std::string_view kSocketPrefix = "unix:";

/**
 * Service-client mode (--store unix:SOCKET): the grid is submitted to a
 * running sweep_serve daemon instead of simulating locally. Responses
 * come back in request order; every `ok` response's run record is
 * emitted verbatim, so — because the daemon builds records exactly
 * like runStoreDir (no timing) — the JSONL output of a fully
 * successful pass is byte-identical to a clean store-directory run of
 * the same grid, whether the daemon simulated the runs or served them
 * from its store.
 */
int
runStoreClient(const std::vector<RunSpec> &specs,
               const std::string &socketPath)
{
    // Run records indexed by spec so the final emission is in grid
    // order no matter how many submission rounds it took.
    std::vector<JsonValue> runs(specs.size());
    std::vector<SweepFailure> failures;
    size_t cachedRuns = 0;

    auto recordFailure = [&](size_t index, const JsonValue *detail) {
        SweepFailure failure;
        failure.index = index;
        failure.benchmark = specs[index].benchmark;
        failure.config = specs[index].config.describe();
        failure.cause = "service error";
        if (detail) {
            if (const JsonValue *message = detail->find("message"))
                failure.cause = message->asString();
            if (const JsonValue *tried = detail->find("attempts"))
                failure.attempts = static_cast<unsigned>(tried->asUint());
        }
        failures.push_back(std::move(failure));
    };

    // Backpressure is an answer, not a failure: `overloaded` and
    // `deadline_exceeded` responses carry a backoff hint, so the
    // client sleeps it out and resubmits just the shed specs. Grids
    // larger than the daemon's admission bound drain in a few rounds;
    // terminal errors (run_failed, poisoned, ...) are never retried —
    // the daemon's guard already spent its attempts.
    std::vector<size_t> pending(specs.size());
    for (size_t i = 0; i < specs.size(); ++i)
        pending[i] = i;
    const unsigned maxRounds = std::max(benchMain().guard.maxAttempts, 3u);
    for (unsigned round = 0; round < maxRounds && !pending.empty();
         ++round) {
        std::vector<std::string> requests;
        requests.reserve(pending.size());
        for (size_t index : pending) {
            JsonValue request = JsonValue::object();
            request.set("id", JsonValue::integer(index));
            request.set("benchmark",
                        JsonValue::string(specs[index].benchmark));
            request.set("config", toJson(specs[index].config));
            requests.push_back(request.dump());
        }
        std::vector<std::string> responses;
        std::string error;
        if (!serviceBatch(socketPath, requests, responses, &error)) {
            std::fprintf(stderr, "bench_suite: --store %s: %s\n",
                         socketPath.c_str(), error.c_str());
            return 1;
        }
        if (responses.size() != requests.size()) {
            std::fprintf(stderr,
                         "bench_suite: --store %s: %zu responses for "
                         "%zu requests\n",
                         socketPath.c_str(), responses.size(),
                         requests.size());
            return 1;
        }

        std::vector<size_t> retry;
        double backoffWait = 0.0;
        for (size_t i = 0; i < responses.size(); ++i) {
            size_t index = pending[i];
            JsonValue response;
            std::string parseError;
            const JsonValue *status = nullptr;
            if (!JsonValue::parse(responses[i], response, &parseError) ||
                !(status = response.find("status"))) {
                std::fprintf(stderr,
                             "bench_suite: --store: unparseable "
                             "response %zu: %s\n",
                             index, parseError.c_str());
                return 1;
            }
            if (status->asString() == "ok") {
                const JsonValue *run = response.find("run");
                panic_if(!run, "ok response without a run record");
                runs[index] = *run;
                const JsonValue *cached = response.find("cached");
                if (cached && cached->asBool())
                    ++cachedRuns;
                continue;
            }
            const JsonValue *detail = response.find("error");
            const JsonValue *type =
                detail ? detail->find("type") : nullptr;
            std::string kind = type ? type->asString() : "";
            bool transient = kind == "overloaded" ||
                             kind == "deadline_exceeded";
            if (transient && round + 1 < maxRounds) {
                retry.push_back(index);
                if (const JsonValue *hint =
                        detail->find("backoff_seconds")) {
                    if (hint->asDouble() > backoffWait)
                        backoffWait = hint->asDouble();
                }
                continue;
            }
            recordFailure(index, detail);
        }
        pending = std::move(retry);
        if (!pending.empty()) {
            std::fprintf(stderr,
                         "bench_suite: --store: %zu spec(s) shed; "
                         "retrying after %.2fs\n",
                         pending.size(),
                         backoffWait > 0.0 ? backoffWait : 0.1);
            std::this_thread::sleep_for(std::chrono::duration<double>(
                backoffWait > 0.0 ? backoffWait : 0.1));
        }
    }

    std::sort(failures.begin(), failures.end(),
              [](const SweepFailure &a, const SweepFailure &b) {
                  return a.index < b.index;
              });
    emitGrid(specs, runs, failures);

    std::printf("\n%zu runs via %s (%zu served from the store, "
                "%zu failed); %zu records -> %s\n",
                specs.size(), socketPath.c_str(), cachedRuns,
                failures.size(), benchMain().jsonRecords(),
                benchMain().jsonPath.c_str());
    // Like quarantine in runStoreDir, a failed run is a reported
    // outcome, not a client crash.
    return 0;
}

/** Epoch length of the suite's adaptive column (20'000 retired
 *  instructions = 25 decision points at the column's 500K budget). */
constexpr uint64_t kAdaptiveInterval = 20'000;

/** Miss penalty of the adaptive column. The column runs a slightly
 *  faster memory than the paper-default 5-cycle grid: at 8 cycles the
 *  wrong-path traffic question is contested — the static policies
 *  finish close enough together that per-epoch selection is worth
 *  measuring — without the penalty dominating every other effect. */
constexpr unsigned kAdaptivePenalty = 8;

/** Exploration rate of the column's bandit runs. */
constexpr double kAdaptiveEpsilon = 0.05;

/**
 * The adaptive column of the grid (DESIGN.md §12): per profile, the
 * per-interval Oracle bound assembled from sampled static runs, plus
 * one Threshold and one Bandit adaptive run from the Resume base
 * policy. Each adaptive run is exported as a schema-v1 `adaptive`
 * record carrying its choice log and regret block; the stdout digest
 * reports the share of the (best static -> oracle) gap each selector
 * closed. On workloads where one policy wins every epoch the gap is
 * zero and 100% means the selector met the oracle bound exactly.
 *
 * The whole column (static reference runs included, so the bound and
 * the selectors see the same machine) runs at its own operating
 * point: kAdaptivePenalty, kAdaptiveInterval and a fixed 500K budget,
 * independent of the grid's --budget knob so the exported regret rows
 * are comparable across suite invocations.
 */
void
runAdaptiveColumn(const std::vector<std::string> &names,
                  const SimConfig &grid)
{
    const std::vector<FetchPolicy> &policies = allPolicies();

    SimConfig base = grid;
    base.instructionBudget = kSuiteBudget;
    base.missPenaltyCycles = kAdaptivePenalty;

    // Sampled static runs, the oracle's raw material, then the online
    // selectors from the same Resume starting policy: one sweep, so
    // each profile's stream is recorded once for all seven runs.
    std::vector<RunSpec> specs;
    specs.reserve(names.size() * (policies.size() + 2));
    for (const std::string &name : names) {
        for (FetchPolicy policy : policies) {
            SimConfig config = base;
            config.policy = policy;
            config.sampleInterval = kAdaptiveInterval;
            specs.push_back(RunSpec{name, config});
        }
    }
    const size_t firstAdaptive = specs.size();
    const SelectorKind kinds[] = {SelectorKind::Threshold,
                                  SelectorKind::Bandit};
    for (const std::string &name : names) {
        for (SelectorKind kind : kinds) {
            SimConfig config = base;
            config.policy = FetchPolicy::Resume;
            config.adaptiveSelector = kind;
            config.adaptiveInterval = kAdaptiveInterval;
            config.adaptiveEpsilon = kAdaptiveEpsilon;
            specs.push_back(RunSpec{name, config});
        }
    }
    std::vector<RunObservations> observations;
    std::vector<SimResults> results =
        runSweep(specs, benchMain().parallelism, nullptr, &observations);

    TextTable table;
    table.setColumns({"workload", "best static", "oracle", "thresh",
                      "gap%", "bandit", "gap%"});
    for (size_t b = 0; b < names.size(); ++b) {
        std::vector<std::vector<EpochRecord>> epochs;
        std::vector<double> staticIspi;
        for (size_t p = 0; p < policies.size(); ++p) {
            size_t i = b * policies.size() + p;
            epochs.push_back(std::move(observations[i].epochs));
            staticIspi.push_back(results[i].ispi());
        }
        PerIntervalOracle oracle =
            buildPerIntervalOracle(policies, std::move(epochs),
                                   std::move(staticIspi),
                                   kAdaptiveInterval);

        double columnIspi[2] = {0.0, 0.0};
        double columnGap[2] = {0.0, 0.0};
        for (size_t k = 0; k < 2; ++k) {
            size_t i = firstAdaptive + b * 2 + k;
            AdaptiveRegret regret = computeRegret(results[i].ispi(), oracle);
            benchMain().emit(makeAdaptiveRecord(
                observations[i].adaptive, results[i], specs[i].config,
                &regret));
            columnIspi[k] = regret.adaptiveIspi;
            columnGap[k] = 100.0 * regret.gapClosed;
        }
        table.addRow({names[b],
                      formatFixed(oracle.bestStaticIspi(), 3) + " (" +
                          shortName(oracle.bestStaticPolicy()) + ")",
                      formatFixed(oracle.oracleIspi, 3),
                      formatFixed(columnIspi[0], 3),
                      formatFixed(columnGap[0], 1),
                      formatFixed(columnIspi[1], 3),
                      formatFixed(columnGap[1], 1)});
    }
    std::printf("\nadaptive column (epoch %llu, penalty %u, base resume; "
                "gap%% = share of the best-static -> oracle gap closed):\n",
                static_cast<unsigned long long>(kAdaptiveInterval),
                kAdaptivePenalty);
    emitTable(table);
}

} // namespace

int
main(int argc, char **argv)
{
    if (!benchMain().parse(argc, argv, "bench_suite",
                           "full policy/prefetch grid with JSONL export",
                           kSuiteBudget, /*suite=*/true)) {
        return parseExitCode();
    }

    SimConfig base;
    base.instructionBudget = benchMain().budget;
    base.checkLevel = benchMain().checkLevel;
    base.checkpointInterval = benchMain().checkpointInterval;
    banner("Bench suite",
           "13 profiles x 5 policies x {no prefetch, next-line}", base,
           "bench_suite");

    const auto &names = benchmarkNames();

    // Profile-major, policy-minor, prefetch-innermost grid.
    std::vector<RunSpec> specs;
    specs.reserve(names.size() * allPolicies().size() * 2);
    for (const std::string &name : names) {
        for (FetchPolicy policy : allPolicies()) {
            for (bool prefetch : {false, true}) {
                SimConfig config = base;
                config.policy = policy;
                config.nextLinePrefetch = prefetch;
                specs.push_back(RunSpec{name, config});
            }
        }
    }

    const std::string &store = benchMain().storePath;
    if (!store.empty()) {
        // Named, not sniffed: a socket a daemon has yet to create must
        // not become a store directory.
        if (store.rfind(kSocketPrefix, 0) == 0)
            return runStoreClient(specs, store.substr(kSocketPrefix.size()));
        return runStoreDir(specs);
    }
    if (benchMain().guard.injector) {
        warn("fault injection is active but no --store was given; "
             "directives are ignored in the unguarded path");
    }

    // Every record of a profile carries the profile's Table-4
    // classification, which the sweep computes once per profile.
    SweepTiming timing;
    std::vector<Classification> classifications;
    std::vector<SimResults> results =
        runSweepReported(specs, &classifications, &timing);

    // Human-readable digest: suite-average ISPI per (policy, prefetch).
    TextTable table;
    table.setColumns({"policy", "ISPI", "ISPI+pref", "pref delta%"});
    size_t perProfile = allPolicies().size() * 2;
    for (size_t p = 0; p < allPolicies().size(); ++p) {
        double off = 0.0, on = 0.0;
        for (size_t b = 0; b < names.size(); ++b) {
            off += results[b * perProfile + p * 2].ispi();
            on += results[b * perProfile + p * 2 + 1].ispi();
        }
        off /= static_cast<double>(names.size());
        on /= static_cast<double>(names.size());
        table.addRow({toString(allPolicies()[p]), formatFixed(off, 3),
                      formatFixed(on, 3),
                      formatFixed(off == 0.0
                                      ? 0.0
                                      : 100.0 * (on - off) / off,
                                  1)});
    }
    emitTable(table);

    auto columnStart = std::chrono::steady_clock::now();
    {
        TraceSpan span("adaptive_column", "bench");
        runAdaptiveColumn(names, base);
    }
    std::chrono::duration<double> column =
        std::chrono::steady_clock::now() - columnStart;

    std::printf("\n%zu runs in %.2fs (workload build %.2fs, "
                "snapshot record %.2fs, classify %.2fs, runs %.2fs), "
                "adaptive column %.2fs; %zu records -> %s\n",
                specs.size(), timing.totalSeconds,
                timing.workloadBuildSeconds, timing.snapshotRecordSeconds,
                timing.classifySeconds, timing.runSeconds, column.count(),
                benchMain().jsonRecords(), benchMain().jsonPath.c_str());
    return 0;
}
