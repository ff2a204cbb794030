#include "serve/service.hh"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "core/sweep.hh"
#include "fault/guard.hh"
#include "fault/injector.hh"
#include "metrics/metrics.hh"
#include "obs/trace_event.hh"
#include "report/metrics_record.hh"
#include "report/record.hh"
#include "trace/snapshot.hh"
#include "util/logging.hh"

namespace specfetch {

using Clock = std::chrono::steady_clock;

namespace {

uint64_t
microsBetween(Clock::time_point begin, Clock::time_point end)
{
    if (end <= begin)
        return 0;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(end - begin)
            .count());
}

/** The wire line of an error response to @p request. */
std::string
errorLine(const ServiceRequest &request, const ServiceError &error)
{
    return makeServiceErrorResponse(request.id, request.key, error).dump();
}

} // namespace

SweepService::Outcome
SweepService::outcomeOf(const ServiceError *error)
{
    if (!error)
        return Outcome::Executed;
    switch (error->type) {
      case ServiceErrorType::Poisoned:         return Outcome::Poisoned;
      case ServiceErrorType::DeadlineExceeded: return Outcome::Expired;
      case ServiceErrorType::Overloaded:       return Outcome::Shed;
      case ServiceErrorType::MalformedJson:
      case ServiceErrorType::BadRequest:
      case ServiceErrorType::ShuttingDown:     return Outcome::Rejected;
      case ServiceErrorType::RunFailed:
      case ServiceErrorType::StoreWriteFailed: return Outcome::Failed;
    }
    return Outcome::Failed;
}

const char *
SweepService::outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::Rejected: return "rejected";
      case Outcome::Hit:      return "hit";
      case Outcome::Deduped:  return "deduped";
      case Outcome::Executed: return "executed";
      case Outcome::Shed:     return "shed";
      case Outcome::Failed:   return "failed";
      case Outcome::Expired:  return "expired";
      case Outcome::Poisoned: return "poisoned";
    }
    return "?";
}

void
SweepService::countOutcomeLocked(Outcome outcome)
{
    ++stats.accepted;
    switch (outcome) {
      case Outcome::Rejected: ++stats.rejected; break;
      case Outcome::Hit:      ++stats.hits;     break;
      case Outcome::Deduped:  ++stats.deduped;  break;
      case Outcome::Executed: ++stats.executed; break;
      case Outcome::Shed:     ++stats.shed;     break;
      case Outcome::Failed:   ++stats.failed;   break;
      case Outcome::Expired:  ++stats.expired;  break;
      case Outcome::Poisoned: ++stats.poisoned; break;
    }
}

void
SweepService::observeSubmitLatency(Outcome outcome, bool timed,
                                   Clock::time_point entry)
{
    if (!timed)
        return;
    LatencyHistogram *histogram =
        queueWaitHistograms[static_cast<unsigned>(outcome)];
    if (histogram)
        histogram->observe(microsBetween(entry, Clock::now()));
}

SweepService::SweepService(ResultStore &resultStore,
                           const Options &options)
    : store(resultStore), opts(options)
{
    panic_if(opts.workers == 0, "sweep service needs at least one worker");
    panic_if(opts.queueBound == 0, "sweep service needs a queue bound");
    if (opts.metrics) {
        // queue_wait covers admission (or submit entry, for requests
        // answered inline) up to execution start / response; execute
        // covers the simulation itself, so only classes that run get
        // one.
        for (unsigned i = 0; i < kOutcomeCount; ++i) {
            Outcome outcome = static_cast<Outcome>(i);
            queueWaitHistograms[i] = &opts.metrics->histogram(
                std::string("service.queue_wait_us.") +
                outcomeName(outcome));
            if (outcome == Outcome::Executed ||
                outcome == Outcome::Failed ||
                outcome == Outcome::Poisoned) {
                executeHistograms[i] = &opts.metrics->histogram(
                    std::string("service.execute_us.") +
                    outcomeName(outcome));
            }
        }
        workerBusy = &opts.metrics->counter("service.worker_busy_us");
        workerIdle = &opts.metrics->counter("service.worker_idle_us");
        streamReplays = &opts.metrics->counter("service.stream_replays");
        streamRecords = &opts.metrics->counter("service.stream_records");
        streamBytes = &opts.metrics->gauge("service.stream_bytes");
        opts.metrics->gauge("service.workers").set(opts.workers);
    }
}

SweepService::~SweepService()
{
    drain();
}

void
SweepService::start()
{
    // The worker body is the service's error boundary: no exception —
    // not a panic turned SimulationError, not a std::bad_alloc — may
    // escape a worker, or the daemon dies with requests in flight.
    onExecute = [this](Job &job) {
        try {
            executeJob(job);
        } catch (const std::exception &e) {
            warn("sweep service: worker caught '%s'; answering "
                 "run_failed",
                 e.what());
            ServiceError error;
            error.type = ServiceErrorType::RunFailed;
            error.message = e.what();
            // The failure-response path must itself be unable to
            // throw: the responder is caller-supplied code.
            try {
                finishKey(job, errorLine(job.request, error), &error);
            } catch (const std::exception &nested) {
                warn("sweep service: responder threw '%s' while "
                     "answering a failure; response dropped",
                     nested.what());
            }
        }
    };
    std::lock_guard<std::mutex> lock(mutex);
    if (!workers.empty())
        return;
    draining = false;
    queueSpanFloor.assign(opts.workers, Clock::time_point{});
    workers.reserve(opts.workers);
    for (unsigned i = 0; i < opts.workers; ++i)
        workers.emplace_back([this, i] { workerLoop(i); });
}

void
SweepService::workerLoop(unsigned workerIndex)
{
    const bool metricsOn = opts.metrics != nullptr;
    for (;;) {
        Job job;
        Clock::time_point idleStart;
        if (metricsOn)
            idleStart = Clock::now();
        {
            std::unique_lock<std::mutex> lock(mutex);
            wake.wait(lock,
                      [this] { return draining || !queue.empty(); });
            if (queue.empty()) {
                if (metricsOn) {
                    workerIdle->add(
                        microsBetween(idleStart, Clock::now()));
                }
                return; // draining and nothing left
            }
            job = std::move(queue.front());
            queue.pop_front();
            ++stats.inflight;
        }
        const bool traced = TraceEventSink::global().enabled();
        if (metricsOn || traced) {
            job.dequeueTime = Clock::now();
            if (metricsOn)
                workerIdle->add(microsBetween(idleStart, job.dequeueTime));
        }
        onExecute(job);
        if (metricsOn || traced) {
            Clock::time_point finished = Clock::now();
            if (metricsOn) {
                workerBusy->add(
                    microsBetween(job.dequeueTime, finished));
            }
            if (traced) {
                // Two lanes per worker: queue-wait spans ride lane
                // base+2w+1, execute spans lane base+2w. Queue spans
                // are clamped so each lane stays non-overlapping —
                // admission happens while the previous job still
                // occupies the lane; exact waits live in the
                // histograms (DESIGN.md §16).
                TraceEventSink &sink = TraceEventSink::global();
                const uint64_t lane = TraceEventSink::kExplicitTidBase +
                                      2ull * workerIndex;
                Clock::time_point begin = job.admitTime;
                if (begin < queueSpanFloor[workerIndex])
                    begin = queueSpanFloor[workerIndex];
                if (begin > job.dequeueTime)
                    begin = job.dequeueTime;
                sink.recordSpanOnTid("queue_wait", "serve", begin,
                                     job.dequeueTime, job.request.key,
                                     lane + 1);
                queueSpanFloor[workerIndex] = job.dequeueTime;
                sink.recordSpanOnTid("execute", "serve", job.dequeueTime,
                                     finished, job.request.key, lane);
            }
        }
        {
            std::lock_guard<std::mutex> lock(mutex);
            --stats.inflight;
        }
        wake.notify_all();
    }
}

double
SweepService::backoffHint(unsigned attempt) const
{
    return backoffSeconds(std::max(attempt, 1u),
                          opts.guard.backoffBaseSeconds);
}

void
SweepService::submit(const std::string &line, Responder respond)
{
    const bool timed = opts.metrics != nullptr ||
                       TraceEventSink::global().enabled();
    Clock::time_point entry;
    if (timed)
        entry = Clock::now();
    {
        std::lock_guard<std::mutex> lock(mutex);
        ++stats.requests;
    }
    ServiceRequest request;
    ServiceError error;
    if (!parseServiceRequest(line, request, error)) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            countOutcomeLocked(Outcome::Rejected);
        }
        observeSubmitLatency(Outcome::Rejected, timed, entry);
        respond(errorLine(request, error));
        return;
    }

    if (request.statsOp) {
        // Control plane: answered from in-memory counters, outside the
        // conservation invariant (it is no run request), never queued.
        {
            std::lock_guard<std::mutex> lock(mutex);
            ++stats.statsOps;
        }
        respond(makeServiceStatsResponse(request.id, telemetryBody()).dump());
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mutex);
        if (poisonedKeys.count(request.key)) {
            countOutcomeLocked(Outcome::Poisoned);
            error.type = ServiceErrorType::Poisoned;
            error.message = "key is quarantined after repeated failures";
        }
    }
    if (error.type == ServiceErrorType::Poisoned) {
        observeSubmitLatency(Outcome::Poisoned, timed, entry);
        respond(errorLine(request, error));
        return;
    }

    std::string record;
    if (store.get(request.key, record)) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            countOutcomeLocked(Outcome::Hit);
        }
        observeSubmitLatency(Outcome::Hit, timed, entry);
        respond(makeServiceResponseLine(request.id, request.key,
                                        /*cached=*/true, record));
        return;
    }

    Job job;
    job.request = std::move(request);
    job.respond = std::move(respond);
    job.timed = timed;
    job.admitTime = entry;
    if (opts.requestDeadlineSeconds > 0.0) {
        job.hasDeadline = true;
        job.deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   opts.requestDeadlineSeconds));
    }

    bool enqueued = false;
    Outcome refusedAs = Outcome::Rejected;
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (draining) {
            error.type = ServiceErrorType::ShuttingDown;
            error.message = "service is draining";
            countOutcomeLocked(Outcome::Rejected);
        } else if (admitted >= opts.queueBound) {
            // Load shedding: bounded memory beats unbounded latency.
            countOutcomeLocked(Outcome::Shed);
            refusedAs = Outcome::Shed;
            error.type = ServiceErrorType::Overloaded;
            error.message = "admission queue is full (" +
                            std::to_string(opts.queueBound) +
                            " requests)";
            error.backoffSeconds = backoffHint(2);
        } else {
            ++admitted;
            stats.queueDepth = admitted;
            auto active = followers.find(job.request.key);
            if (active != followers.end()) {
                // Single-flight: ride the execution already admitted
                // for this key instead of simulating twice. Counted
                // `deduped` when the leader's result answers it, not
                // here — an outcome is a delivered response.
                active->second.push_back(std::move(job));
            } else {
                followers.emplace(job.request.key, std::vector<Job>{});
                queue.push_back(std::move(job));
            }
            enqueued = true;
        }
    }
    if (enqueued) {
        wake.notify_one();
        return;
    }
    // Shed or draining: job was not consumed, respond with the error.
    observeSubmitLatency(refusedAs, timed, entry);
    job.respond(errorLine(job.request, error));
}

void
SweepService::executeJob(Job &job)
{
    const std::string &key = job.request.key;

    ServiceError error;
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (poisonedKeys.count(key)) {
            error.type = ServiceErrorType::Poisoned;
            error.message = "key is quarantined after repeated failures";
        }
    }
    if (error.type == ServiceErrorType::Poisoned) {
        finishKey(job, errorLine(job.request, error), &error);
        return;
    }

    // The deadline covers admission-to-execution wait; a run that
    // starts in time runs to completion (killing it mid-simulation is
    // the watchdog's job, not the deadline's).
    if (job.hasDeadline && Clock::now() >= job.deadline) {
        error.type = ServiceErrorType::DeadlineExceeded;
        error.message = "deadline expired before the run could start";
        error.backoffSeconds = backoffHint(2);
        finishKey(job, errorLine(job.request, error), &error);
        return;
    }
    if (opts.testBeforeExecute)
        opts.testBeforeExecute();

    SweepOptions sweep;
    sweep.parallelism = 1;
    SweepGuard &guard = sweep.guard.emplace(opts.guard);
    FaultInjector localInjector;
    if (guard.injector && !guard.injector->empty()) {
        uint64_t ordinal;
        {
            std::lock_guard<std::mutex> lock(mutex);
            ordinal = executedOrdinal++;
        }
        localInjector = guard.injector->atOrdinal(ordinal);
        guard.injector = &localInjector;
    }

    // A miss replays its (benchmark, run seed) stream when an earlier
    // miss kept it, and shares its row's classification; otherwise the
    // sweep records the stream, for this run, the row's classification
    // and later misses.
    const StreamKey streamKey{job.request.benchmark,
                              job.request.config.runSeed};
    const std::string rowKey =
        classificationKey(job.request.benchmark, job.request.config);
    std::shared_ptr<const TraceSnapshot> handed;
    std::optional<Classification> classification;
    {
        std::lock_guard<std::mutex> lock(keptMutex);
        auto found = keptIndex.find(streamKey);
        if (found != keptIndex.end()) {
            handed = found->second->stream;
            auto row = found->second->rows.find(rowKey);
            if (row != found->second->rows.end())
                classification = row->second;
        }
    }
    KeptStreams streams;
    if (handed)
        streams.emplace(streamKey, handed);
    sweep.streams = &streams;
    std::vector<Classification> classified;
    if (!classification)
        sweep.classifications = &classified;

    std::vector<RunSpec> specs{
        RunSpec{job.request.benchmark, job.request.config}};
    SweepOutcome outcome = runSweep(specs, sweep);
    if (!classified.empty())
        classification = classified[0];
    // What the sweep's map holds is the stream it replayed or recorded;
    // nothing, when a replay refused it or it is beyond the record cap.
    auto left = streams.find(streamKey);
    std::shared_ptr<const TraceSnapshot> stream =
        left != streams.end() ? left->second : nullptr;
    if (stream && streamReplays)
        (stream == handed ? streamReplays : streamRecords)->add(1);
    keepStream(streamKey, std::move(stream), rowKey,
               classified.empty() ? nullptr : &classified[0]);

    if (outcome.allCompleted()) {
        // Serialized once: these bytes go to the store's frame and
        // index, to this response and to every rider's.
        const std::string record =
            makeRunRecord(outcome.results[0], job.request.config, nullptr,
                          classification ? &*classification : nullptr)
                .dump();
        std::string storeError;
        if (!store.put(key, record, &storeError)) {
            error.type = ServiceErrorType::StoreWriteFailed;
            error.message = "run completed but could not be persisted: " +
                            storeError;
            error.backoffSeconds = backoffHint(2);
            finishKey(job, errorLine(job.request, error), &error);
            return;
        }
        finishKey(job,
                  makeServiceResponseLine(job.request.id, key,
                                          /*cached=*/false, record),
                  nullptr, record);
        return;
    }

    const SweepFailure &failure = outcome.failures[0];
    bool poisonedNow = false;
    {
        std::lock_guard<std::mutex> lock(mutex);
        unsigned count = ++failureCounts[key];
        if (count >= opts.poisonThreshold) {
            poisonedKeys.insert(key);
            poisonedNow = true;
        }
    }
    if (poisonedNow) {
        error.type = ServiceErrorType::Poisoned;
        error.message = "quarantined after " +
                        std::to_string(opts.poisonThreshold) +
                        " terminal failures; last cause: " + failure.cause;
        error.attempts = failure.attempts;
    } else {
        error.type = ServiceErrorType::RunFailed;
        error.message = failure.cause;
        error.attempts = failure.attempts;
        error.backoffSeconds = backoffHint(failure.attempts);
    }
    finishKey(job, errorLine(job.request, error), &error);
}

uint64_t
SweepService::KeptStream::cost() const
{
    uint64_t total = stream ? stream->byteSize() : 0;
    for (const auto &[rowKey, classification] : rows)
        total += rowKey.size() + sizeof(classification);
    return total;
}

void
SweepService::keepStream(const StreamKey &key,
                         std::shared_ptr<const TraceSnapshot> stream,
                         const std::string &row,
                         const Classification *classification)
{
    std::lock_guard<std::mutex> lock(keptMutex);
    auto found = keptIndex.find(key);
    if (found == keptIndex.end()) {
        kept.push_front(KeptStream{key, nullptr, {}, 0});
        found = keptIndex.emplace(key, kept.begin()).first;
    } else {
        kept.splice(kept.begin(), kept, found->second);
    }
    KeptStream &entry = *found->second;
    keptBytes -= entry.bytes;
    entry.stream = std::move(stream);
    if (classification)
        entry.rows.emplace(row, *classification);
    if (entry.cost() > kKeptStreamBytes)
        entry.stream.reset();
    entry.bytes = entry.cost();
    keptBytes += entry.bytes;
    while (keptBytes > kKeptStreamBytes) {
        keptBytes -= kept.back().bytes;
        keptIndex.erase(kept.back().key);
        kept.pop_back();
    }
    if (streamBytes)
        streamBytes->set(keptBytes);
}

void
SweepService::finishKey(Job &leader, std::string response,
                        const ServiceError *error, std::string_view run)
{
    const std::string &key = leader.request.key;
    const Outcome outcome = outcomeOf(error);
    const bool metricsOn = opts.metrics != nullptr;
    Clock::time_point finished;
    if (metricsOn)
        finished = Clock::now();
    std::vector<Job> riders;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = followers.find(key);
        if (it == followers.end()) {
            // Already finished (a responder threw mid-finish and the
            // boundary retried): counting or releasing again would
            // corrupt the invariant and underflow `admitted`.
            warn("sweep service: duplicate finish for key %s dropped",
                 key.c_str());
            return;
        }
        riders = std::move(it->second);
        followers.erase(it);
        admitted -= 1 + riders.size();
        stats.queueDepth = admitted;
        countOutcomeLocked(outcome);
        for (size_t i = 0; i < riders.size(); ++i)
            countOutcomeLocked(Outcome::Deduped);
    }
    if (metricsOn && leader.timed) {
        LatencyHistogram *wait =
            queueWaitHistograms[static_cast<unsigned>(outcome)];
        if (wait) {
            wait->observe(
                microsBetween(leader.admitTime, leader.dequeueTime));
        }
        LatencyHistogram *execute =
            executeHistograms[static_cast<unsigned>(outcome)];
        if (execute) {
            execute->observe(
                microsBetween(leader.dequeueTime, finished));
        }
        LatencyHistogram *riderWait = queueWaitHistograms[static_cast<unsigned>(
            Outcome::Deduped)];
        if (riderWait) {
            for (const Job &rider : riders) {
                if (rider.timed) {
                    riderWait->observe(
                        microsBetween(rider.admitTime, finished));
                }
            }
        }
    }
    leader.respond(std::move(response));
    for (Job &rider : riders) {
        // A rider gets the leader's record text, or the leader's error.
        rider.respond(error ? errorLine(rider.request, *error)
                            : makeServiceResponseLine(rider.request.id, key,
                                                      /*cached=*/true, run));
    }
}

void
SweepService::drain()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        draining = true;
    }
    wake.notify_all();
    for (std::thread &worker : workers) {
        if (worker.joinable())
            worker.join();
    }
    workers.clear();
}

SweepService::Stats
SweepService::statsSnapshot() const
{
    std::lock_guard<std::mutex> lock(mutex);
    // In-process conservation check: every snapshot must balance.
    // warn (once) rather than panic — a broken counter is a telemetry
    // bug, not a reason to kill a daemon with requests in flight; CI
    // gates on the "conserved" member via tools/validate_metrics.py.
    if (stats.accepted != stats.outcomeSum() && !conservationWarned) {
        conservationWarned = true;
        warn("sweep service: outcome conservation violated "
             "(accepted %llu != outcome sum %llu)",
             static_cast<unsigned long long>(stats.accepted),
             static_cast<unsigned long long>(stats.outcomeSum()));
    }
    return stats;
}

JsonValue
SweepService::serviceStatsJson() const
{
    Stats snapshot = statsSnapshot();
    JsonValue out = JsonValue::object();
    out.set("requests", JsonValue::integer(snapshot.requests))
        .set("accepted", JsonValue::integer(snapshot.accepted))
        .set("stats_ops", JsonValue::integer(snapshot.statsOps))
        .set("hits", JsonValue::integer(snapshot.hits))
        .set("executed", JsonValue::integer(snapshot.executed))
        .set("deduped", JsonValue::integer(snapshot.deduped))
        .set("shed", JsonValue::integer(snapshot.shed))
        .set("expired", JsonValue::integer(snapshot.expired))
        .set("poisoned", JsonValue::integer(snapshot.poisoned))
        .set("failed", JsonValue::integer(snapshot.failed))
        .set("rejected", JsonValue::integer(snapshot.rejected))
        .set("queue_depth", JsonValue::integer(snapshot.queueDepth))
        .set("inflight", JsonValue::integer(snapshot.inflight))
        .set("conserved", JsonValue::boolean(snapshot.accepted ==
                                             snapshot.outcomeSum()));
    return out;
}

JsonValue
SweepService::telemetryBody() const
{
    JsonValue body = JsonValue::object();
    body.set("service", serviceStatsJson())
        .set("store", toJson(store.stats()));
    setMetricsMembers(body, opts.metrics ? opts.metrics->snapshot()
                                         : MetricsSnapshot{});
    return body;
}

JsonValue
SweepService::metricsRecord(const std::string &label, uint64_t seq,
                            double elapsedSeconds, bool final) const
{
    return makeMetricsRecord(label, seq, elapsedSeconds, final,
                             serviceStatsJson(), toJson(store.stats()),
                             opts.metrics ? opts.metrics->snapshot()
                                          : MetricsSnapshot{});
}

} // namespace specfetch
