#include "core/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "check/invariant.hh"
#include "core/simulator.hh"
#include "fault/guard.hh"
#include "fault/injector.hh"
#include "obs/progress.hh"
#include "obs/trace_event.hh"
#include "trace/snapshot.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"
#include "workload/executor.hh"
#include "workload/workload.hh"

namespace specfetch {

namespace {

using SweepClock = std::chrono::steady_clock;

double
secondsSince(SweepClock::time_point start)
{
    return std::chrono::duration<double>(SweepClock::now() - start)
        .count();
}

/** Run fn(0..count-1) across @p workers threads (work-stealing). */
void
parallelFor(size_t count, unsigned workers,
            const std::function<void(size_t)> &fn)
{
    if (count == 0)
        return;
    if (workers > count)
        workers = static_cast<unsigned>(count);
    std::atomic<size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            size_t index = next.fetch_add(1);
            if (index >= count)
                return;
            fn(index);
        }
    };
    if (workers <= 1) {
        worker();
        return;
    }
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        threads.emplace_back(worker);
    for (std::thread &thread : threads)
        thread.join();
}

/** Identity of one correct-path stream: program + dynamic seed. */
using StreamKey = std::pair<std::string, uint64_t>;

/** The work every sweep hoists out of its per-spec runs. */
struct SweepShared
{
    std::map<std::string, std::shared_ptr<const Workload>> workloads;
    std::map<StreamKey, std::shared_ptr<const TraceSnapshot>> snapshots;
};

/**
 * Build the distinct workloads and record the shared correct-path
 * snapshots (record-once/replay-many; see runSweep's contract).
 */
SweepShared
prepareShared(const std::vector<RunSpec> &specs, unsigned workers,
              SweepTiming *timing, SweepClock::time_point sweepStart)
{
    SweepShared shared;

    // Fetch each distinct workload once (process-wide memoized store);
    // runs only read them.
    {
        TraceSpan span("workload_build", "sweep");
        for (const RunSpec &spec : specs) {
            if (!shared.workloads.count(spec.benchmark))
                shared.workloads[spec.benchmark] =
                    sharedWorkload(spec.benchmark);
        }
    }
    if (timing)
        timing->workloadBuildSeconds = secondsSince(sweepStart);

    // Record-once/replay-many: every spec sharing (benchmark, seed)
    // consumes the identical correct-path stream, so record it in one
    // executor pass — long enough for the hungriest consumer — and
    // replay it across all of them. Streams with a single consumer
    // (or beyond the memory cap) stay on live execution.
    SweepClock::time_point recordStart = SweepClock::now();
    std::map<StreamKey, uint64_t> streamLength;
    std::map<StreamKey, size_t> streamUses;
    for (const RunSpec &spec : specs) {
        StreamKey key{spec.benchmark, spec.config.runSeed};
        uint64_t length =
            spec.config.warmupInstructions + spec.config.instructionBudget;
        streamLength[key] = std::max(streamLength[key], length);
        ++streamUses[key];
    }
    std::vector<std::pair<StreamKey, uint64_t>> toRecord;
    for (const auto &[key, length] : streamLength) {
        if (streamUses.at(key) >= 2 &&
            length <= kSweepSnapshotMaxInstructions) {
            toRecord.emplace_back(key, length);
        }
    }
    std::vector<std::shared_ptr<const TraceSnapshot>> recorded(
        toRecord.size());
    // SPECFETCH-ALLOW(error-boundary): pre-recording failures abort before any run starts; nothing to quarantine yet
    parallelFor(toRecord.size(), workers, [&](size_t i) {
        const auto &[key, length] = toRecord[i];
        TraceSpan span("snapshot_record", "sweep", key.first);
        Executor executor(shared.workloads.at(key.first)->cfg, key.second);
        // lint: allow(loop-alloc) one allocation per distinct stream
        recorded[i] = std::make_shared<const TraceSnapshot>(
            TraceSnapshot::record(executor, length));
    });
    for (size_t i = 0; i < toRecord.size(); ++i)
        shared.snapshots.emplace(toRecord[i].first, recorded[i]);
    if (timing)
        timing->snapshotRecordSeconds = secondsSince(recordStart);

    return shared;
}

/**
 * Paranoid sweeps cross-validate the whole fast path: every run is
 * repeated serially *through the live executor* (never a replay) and
 * must be bit-identical. Any divergence is either cross-thread state
 * leakage or a snapshot record/replay defect. Quarantined runs are
 * excluded — they have no result to validate.
 */
void
paranoidCrossValidate(const std::vector<RunSpec> &specs,
                      const SweepOutcome &outcome,
                      const SweepShared &shared)
{
    bool paranoid =
        std::any_of(specs.begin(), specs.end(), [](const RunSpec &s) {
            return s.config.checkLevel == CheckLevel::Paranoid;
        });
    if (!paranoid)
        return;

    std::vector<SimResults> checkedResults;
    std::vector<SimResults> serial;
    for (size_t i = 0; i < specs.size(); ++i) {
        if (!outcome.completed[i])
            continue;
        checkedResults.push_back(outcome.results[i]);
        serial.push_back(runSimulation(
            *shared.workloads.at(specs[i].benchmark), specs[i].config));
    }
    InvariantAuditor auditor(CheckLevel::Paranoid);
    auditSweepDeterminism(checkedResults, serial, auditor);
    if (!auditor.clean()) {
        auditor.emitReport(specs.front().config);
        panic("parallel sweep diverged from its serial re-run "
              "(%zu of %zu runs differ)",
              auditor.violations().size(), checkedResults.size());
    }
}

/** Span argument for one run; empty (no alloc) when tracing is off. */
std::string
runSpanDetail(const RunSpec &spec)
{
    if (!TraceEventSink::global().enabled())
        return {};
    return spec.benchmark + " " + toString(spec.config.policy);
}

unsigned
resolveWorkers(unsigned parallelism)
{
    return parallelism != 0
        ? parallelism
        : std::max(1u, std::thread::hardware_concurrency());
}

/** One run: replays @p snapshot and fills @p obs when given. */
SimResults
simulate(const Workload &workload, const SimConfig &config,
         const TraceSnapshot *snapshot, RunObservations *obs)
{
    if (obs) {
        return snapshot ? runSimulation(workload, config, *snapshot, *obs)
                        : runSimulation(workload, config, *obs);
    }
    return snapshot ? runSimulation(workload, config, *snapshot)
                    : runSimulation(workload, config);
}

/** Outcome of one run. */
struct GuardedRun
{
    bool ok = false;
    SimResults results;
    std::string cause;
};

/**
 * Execute one spec behind the guard: exception boundary, optional
 * watchdog, snapshot-integrity check, retry with exponential backoff
 * degrading from snapshot replay to the live executor.
 */
GuardedRun
runOneGuarded(const Workload &workload, const RunSpec &spec,
              const TraceSnapshot *snapshot, RunObservations *obs,
              const SweepGuard &guard, size_t index)
{
    GuardedRun out;
    unsigned attempts = std::max(1u, guard.maxAttempts);
    for (unsigned attempt = 1; attempt <= attempts; ++attempt) {
        if (attempt > 1) {
            ProgressReporter::global().runRetried();
            TraceSpan backoff("backoff", "fault", runSpanDetail(spec));
            sleepSeconds(
                backoffSeconds(attempt, guard.backoffBaseSeconds));
        }
        TraceSpan span(attempt == 1 ? "attempt" : "retry", "fault",
                       runSpanDetail(spec));
        try {
            const FaultInjector *injector = guard.injector;
            if (injector &&
                injector->fires(FaultKind::Throw, index, attempt)) {
                throw InjectedFault("injected fault: forced throw");
            }
            bool expireNow = injector &&
                injector->fires(FaultKind::Timeout, index, attempt);

            // Degraded retry: only the first attempt may replay; a
            // rerun goes through the live executor in case the
            // snapshot itself is implicated.
            const TraceSnapshot *snap = attempt == 1 ? snapshot : nullptr;
            TraceSnapshot corrupted;
            if (snap && injector &&
                injector->fires(FaultKind::CorruptSnapshot, index,
                                attempt)) {
                corrupted = *snap;
                corrupted.corruptBitForTesting(index * 131 + 7);
                snap = &corrupted;
            }
            if (snap) {
                std::string why;
                if (!snap->verify(&why)) {
                    warn("sweep run %zu: %s; refusing replay, degrading "
                         "to live execution",
                         index, why.c_str());
                    snap = nullptr;
                }
            }

            ScopedThrowOnError boundary;
            std::optional<Watchdog> watchdog;
            if (guard.runTimeoutSeconds > 0.0 || expireNow) {
                // Generous runaway tripwire: well past anything a
                // budget-respecting run can retire.
                uint64_t ceiling = (spec.config.warmupInstructions +
                                    spec.config.instructionBudget) *
                        2 +
                    1'000'000;
                watchdog.emplace(guard.runTimeoutSeconds, ceiling,
                                 expireNow);
            }
            out.results = simulate(workload, spec.config, snap, obs);
            out.ok = true;
            return out;
        } catch (const std::exception &e) {
            out.cause = e.what();
            warn("sweep run %zu attempt %u/%u failed: %s", index, attempt,
                 attempts, e.what());
        }
    }
    return out;
}

} // namespace

SweepOutcome
runSweep(const std::vector<RunSpec> &specs, const SweepOptions &options)
{
    SweepClock::time_point sweepStart = SweepClock::now();
    SweepTiming *timing = options.timing;
    if (timing) {
        *timing = SweepTiming{};
        timing->perRunSeconds.assign(specs.size(), 0.0);
    }
    std::vector<RunObservations> *observations = options.observations;
    if (observations) {
        observations->clear();
        observations->resize(specs.size());
    }

    unsigned workers = resolveWorkers(options.parallelism);
    SweepShared shared = prepareShared(specs, workers, timing, sweepStart);

    SweepOutcome outcome;
    outcome.results.resize(specs.size());
    outcome.completed.assign(specs.size(), 0);
    std::mutex failuresMutex;

    SweepClock::time_point runStart = SweepClock::now();
    // SPECFETCH-ALLOW(error-boundary): an unguarded sweep aborts on panic by contract; a guarded one runs every spec through runOneGuarded
    parallelFor(specs.size(), workers, [&](size_t index) {
        const RunSpec &spec = specs[index];
        const Workload &workload = *shared.workloads.at(spec.benchmark);
        auto snap = shared.snapshots.find(
            StreamKey{spec.benchmark, spec.config.runSeed});
        const TraceSnapshot *snapshot =
            snap != shared.snapshots.end() ? snap->second.get() : nullptr;
        // Each index is claimed by exactly one worker, so the per-run
        // slots (results, timing, observations) need no
        // synchronization.
        RunObservations *obs =
            observations ? &(*observations)[index] : nullptr;
        SweepClock::time_point start = SweepClock::now();
        GuardedRun run;
        if (options.guard) {
            run = runOneGuarded(workload, spec, snapshot, obs,
                                *options.guard, index);
        } else {
            TraceSpan span("simulate", "run", runSpanDetail(spec));
            run.results = simulate(workload, spec.config, snapshot, obs);
            run.ok = true;
        }
        if (timing)
            timing->perRunSeconds[index] = secondsSince(start);

        if (run.ok) {
            outcome.results[index] = std::move(run.results);
            outcome.completed[index] = 1;
            if (options.onRunComplete)
                options.onRunComplete(index, outcome.results[index]);
            ProgressReporter::global().runCompleted();
            return;
        }
        ProgressReporter::global().runQuarantined();

        SweepFailure failure;
        failure.index = index;
        failure.benchmark = spec.benchmark;
        failure.config = spec.config.describe();
        failure.cause = run.cause;
        failure.attempts = std::max(1u, options.guard->maxAttempts);
        std::lock_guard<std::mutex> lock(failuresMutex);
        outcome.failures.push_back(std::move(failure));
    });

    if (timing) {
        timing->runSeconds = secondsSince(runStart);
        timing->totalSeconds = secondsSince(sweepStart);
    }

    // Deterministic failure order regardless of worker interleaving.
    std::sort(outcome.failures.begin(), outcome.failures.end(),
              [](const SweepFailure &a, const SweepFailure &b) {
                  return a.index < b.index;
              });

    paranoidCrossValidate(specs, outcome, shared);
    return outcome;
}

std::vector<SimResults>
runPolicyGrid(const std::vector<std::string> &benchmarks,
              const SimConfig &base,
              const std::vector<FetchPolicy> &policies)
{
    std::vector<RunSpec> specs;
    specs.reserve(benchmarks.size() * policies.size());
    for (const std::string &benchmark : benchmarks) {
        for (FetchPolicy policy : policies) {
            RunSpec spec{benchmark, base};
            spec.config.policy = policy;
            specs.push_back(std::move(spec));
        }
    }
    return runSweep(specs);
}

uint64_t
benchBudget(uint64_t fallback)
{
    const char *env = std::getenv("SPECFETCH_BUDGET");
    if (!env)
        return fallback;
    uint64_t value;
    if (!parseCount(env, value) || value == 0)
        return fallback;
    return value;
}

} // namespace specfetch
