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

/** One classification of the classify stage: a distinct (benchmark,
 *  classificationConfig) among the specs. */
struct ClassifyJob
{
    std::string benchmark;
    SimConfig config;
    Classification result;
    /** A guarded classification refused its stream's snapshot. */
    bool refusedSnapshot = false;
};

/** The classify stage's work: the distinct rows, and each spec's. */
struct ClassifyPlan
{
    std::vector<ClassifyJob> jobs;
    /** Indexed like specs: the job classifying that spec's row. */
    std::vector<size_t> jobOf;
};

/** Group @p specs into classification rows by classificationKey. */
ClassifyPlan
planClassifications(const std::vector<RunSpec> &specs)
{
    ClassifyPlan plan;
    plan.jobOf.reserve(specs.size());
    std::map<std::string, size_t> rows;
    for (const RunSpec &spec : specs) {
        auto [row, added] = rows.try_emplace(
            classificationKey(spec.benchmark, spec.config),
            plan.jobs.size());
        if (added) {
            plan.jobs.push_back(ClassifyJob{
                spec.benchmark, classificationConfig(spec.config), {}});
        }
        plan.jobOf.push_back(row->second);
    }
    return plan;
}

/** The work every sweep hoists out of its per-spec runs. */
struct SweepShared
{
    std::map<std::string, std::shared_ptr<const Workload>> workloads;
    std::map<StreamKey, std::shared_ptr<const TraceSnapshot>> snapshots;

    /** The recorded stream of (@p benchmark, @p seed), or null. */
    const TraceSnapshot *
    snapshotOf(const std::string &benchmark, uint64_t seed) const
    {
        auto snap = snapshots.find(StreamKey{benchmark, seed});
        return snap != snapshots.end() ? snap->second.get() : nullptr;
    }
};

/**
 * Build the distinct workloads and record the shared correct-path
 * snapshots (record-once/replay-many; see runSweep's contract). The
 * runs of @p specs and the classifications of @p jobs all consume
 * their (benchmark, seed) streams; @p kept (may be null) holds the
 * caller's streams (SweepOptions::streams).
 */
SweepShared
prepareShared(const std::vector<RunSpec> &specs,
              const std::vector<ClassifyJob> &jobs, KeptStreams *kept,
              unsigned workers, SweepTiming *timing,
              SweepClock::time_point sweepStart)
{
    SweepShared shared;

    // Fetch each distinct workload once (process-wide memoized store),
    // building the distinct names in parallel; runs only read them.
    {
        TraceSpan span("workload_build", "sweep");
        std::vector<std::string> names;
        for (const RunSpec &spec : specs) {
            if (shared.workloads.emplace(spec.benchmark, nullptr).second)
                names.push_back(spec.benchmark);
        }
        // SPECFETCH-ALLOW(error-boundary): a workload that cannot be built aborts before any run starts; nothing to quarantine yet
        parallelFor(names.size(), workers, [&](size_t i) {
            shared.workloads.at(names[i]) = sharedWorkload(names[i]);
        });
    }
    if (timing)
        timing->workloadBuildSeconds = secondsSince(sweepStart);

    // Record-once/replay-many: every run and classification sharing
    // (benchmark, seed) consumes the identical correct-path stream, so
    // record it in one executor pass — long enough for the hungriest
    // consumer — and replay it across all of them. A caller's kept
    // stream that is long enough is replayed without a record; without
    // kept streams, a stream with a single consumer stays on live
    // execution, as does one beyond the memory cap.
    SweepClock::time_point recordStart = SweepClock::now();
    std::map<StreamKey, uint64_t> streamLength;
    std::map<StreamKey, size_t> streamUses;
    auto consume = [&](const std::string &benchmark,
                       const SimConfig &config) {
        StreamKey key{benchmark, config.runSeed};
        uint64_t length =
            config.warmupInstructions + config.instructionBudget;
        streamLength[key] = std::max(streamLength[key], length);
        ++streamUses[key];
    };
    for (const RunSpec &spec : specs)
        consume(spec.benchmark, spec.config);
    for (const ClassifyJob &job : jobs)
        consume(job.benchmark, job.config);
    std::vector<std::pair<StreamKey, uint64_t>> toRecord;
    for (const auto &[key, length] : streamLength) {
        if (kept) {
            auto found = kept->find(key);
            if (found != kept->end() &&
                found->second->instructionCount() >= length) {
                shared.snapshots.emplace(key, found->second);
                continue;
            }
        }
        if ((kept || streamUses.at(key) >= 2) &&
            length <= kSweepSnapshotMaxInstructions) {
            toRecord.emplace_back(key, length);
        } else if (kept) {
            kept->erase(key); // too short, and too long to record anew
        }
    }
    std::vector<std::shared_ptr<const TraceSnapshot>> recorded(
        toRecord.size());
    // SPECFETCH-ALLOW(error-boundary): pre-recording failures abort before any run starts; nothing to quarantine yet
    parallelFor(toRecord.size(), workers, [&](size_t i) {
        const auto &[key, length] = toRecord[i];
        TraceSpan span("snapshot_record", "sweep", key.first);
        Executor executor(shared.workloads.at(key.first)->cfg, key.second);
        // SPECFETCH-ALLOW(loop-alloc): one allocation per distinct stream
        recorded[i] = std::make_shared<const TraceSnapshot>(
            TraceSnapshot::record(executor, length));
    });
    for (size_t i = 0; i < toRecord.size(); ++i) {
        shared.snapshots.emplace(toRecord[i].first, recorded[i]);
        if (kept)
            (*kept)[toRecord[i].first] = recorded[i];
    }
    if (timing)
        timing->snapshotRecordSeconds = secondsSince(recordStart);

    return shared;
}

/**
 * The classify stage: every job in parallel, replaying its stream's
 * snapshot when one was recorded. A guarded sweep replays only a
 * snapshot whose content digest verifies and otherwise classifies
 * live, as runOneGuarded does for runs.
 */
void
classifyRows(std::vector<ClassifyJob> &jobs, const SweepShared &shared,
             bool guarded, unsigned workers)
{
    // SPECFETCH-ALLOW(error-boundary): like the snapshot record, classification precedes every run; a failure aborts before anything could be quarantined
    parallelFor(jobs.size(), workers, [&](size_t i) {
        ClassifyJob &job = jobs[i];
        TraceSpan span("classify", "sweep", job.benchmark);
        const Workload &workload = *shared.workloads.at(job.benchmark);
        const TraceSnapshot *snapshot =
            shared.snapshotOf(job.benchmark, job.config.runSeed);
        std::string why;
        if (snapshot && guarded && !snapshot->verify(&why)) {
            warn("sweep classification %zu: %s; refusing replay, "
                 "classifying live",
                 i, why.c_str());
            snapshot = nullptr;
            job.refusedSnapshot = true;
        }
        job.result = snapshot
            ? classifyMisses(workload, job.config, *snapshot)
            : classifyMisses(workload, job.config);
    });
}

/**
 * Paranoid sweeps cross-validate the whole fast path: every run is
 * repeated serially *through the live executor* (never a replay) and
 * must be bit-identical, and so is every classification. Any
 * divergence is either cross-thread state leakage or a snapshot
 * record/replay defect. Quarantined runs are excluded — they have no
 * result to validate.
 */
void
paranoidCrossValidate(const std::vector<RunSpec> &specs,
                      const SweepOutcome &outcome,
                      const std::vector<ClassifyJob> &jobs,
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
    for (const ClassifyJob &job : jobs) {
        if (classifyMisses(*shared.workloads.at(job.benchmark),
                           job.config) != job.result) {
            panic("sweep classification of '%s' (%s) diverged from its "
                  "live re-run",
                  job.benchmark.c_str(), job.config.describe().c_str());
        }
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
    /** The first attempt refused the snapshot: its digest failed. */
    bool refusedSnapshot = false;
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
                    out.refusedSnapshot = true;
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
    ClassifyPlan plan;
    if (options.classifications)
        plan = planClassifications(specs);
    SweepShared shared = prepareShared(specs, plan.jobs, options.streams,
                                       workers, timing, sweepStart);

    // Classify before any run starts, so every spec's classification
    // is ready when its onRunComplete fires.
    SweepClock::time_point classifyStart = SweepClock::now();
    classifyRows(plan.jobs, shared, options.guard.has_value(), workers);
    if (options.classifications) {
        options.classifications->clear();
        options.classifications->reserve(specs.size());
        for (size_t job : plan.jobOf)
            options.classifications->push_back(plan.jobs[job].result);
    }
    if (timing)
        timing->classifySeconds = secondsSince(classifyStart);

    SweepOutcome outcome;
    outcome.results.resize(specs.size());
    outcome.completed.assign(specs.size(), 0);
    std::mutex failuresMutex;
    std::vector<uint8_t> refused(specs.size(), 0);

    SweepClock::time_point runStart = SweepClock::now();
    // SPECFETCH-ALLOW(error-boundary): an unguarded sweep aborts on panic by contract; a guarded one runs every spec through runOneGuarded
    parallelFor(specs.size(), workers, [&](size_t index) {
        const RunSpec &spec = specs[index];
        const Workload &workload = *shared.workloads.at(spec.benchmark);
        const TraceSnapshot *snapshot =
            shared.snapshotOf(spec.benchmark, spec.config.runSeed);
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
        refused[index] = run.refusedSnapshot;

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

    // A kept stream that failed its digest is dropped, so the caller
    // records it anew instead of refusing it at every later sweep.
    if (options.streams) {
        for (size_t i = 0; i < specs.size(); ++i) {
            if (refused[i]) {
                options.streams->erase(
                    StreamKey{specs[i].benchmark, specs[i].config.runSeed});
            }
        }
        for (const ClassifyJob &job : plan.jobs) {
            if (job.refusedSnapshot) {
                options.streams->erase(
                    StreamKey{job.benchmark, job.config.runSeed});
            }
        }
    }

    paranoidCrossValidate(specs, outcome, plan.jobs, shared);
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
