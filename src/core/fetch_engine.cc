#include "core/fetch_engine.hh"

#include <algorithm>
#include <type_traits>

#include "adaptive/selector.hh"
#include "check/invariant.hh"
#include "fault/guard.hh"
#include "obs/interval_sampler.hh"
#include "obs/trace_event.hh"
#include "trace/snapshot.hh"
#include "util/logging.hh"

namespace specfetch {

namespace {

constexpr Addr kNoLine = ~Addr{0};

} // namespace

FetchEngine::FetchEngine(const SimConfig &_config, const ProgramImage &_image)
    : config(_config), image(_image), predictor(_config.predictor),
      cache(_config.icache), bus(_config.memoryChannels), resumeBuffer(),
      hierarchy(_config.memoryConfig(), _config.issueWidth),
      victimCache(_config.victimEntries ? _config.victimEntries : 1),
      prefetcher(_config.effectivePrefetchKind(), cache, bus,
                 &resumeBuffer, _config.targetTableEntries, &hierarchy),
      walker(this->config, _image, predictor, cache, bus, resumeBuffer,
             hierarchy, prefetcher.enabled() ? &prefetcher : nullptr),
      curLine(kNoLine)
{
    this->config.validate();
    if (config.victimEntries > 0)
        cache.setVictimCache(&victimCache);
    if (config.checkLevel != CheckLevel::Off) {
        auditor = std::make_unique<InvariantAuditor>(
            InvariantAuditor::standard(config.checkLevel));
    }
    if (config.sampleInterval > 0)
        sampler = std::make_unique<IntervalSampler>(config.sampleInterval);
    if (config.setHeatmap)
        heatmap = std::make_unique<SetHeatmap>(config.icache);
    if (config.adaptiveSelector != SelectorKind::Off) {
        selector = makeSelector(config);
        adaptiveTicker =
            std::make_unique<IntervalSampler>(config.adaptiveInterval);
    }
    walker.setStats(&stats);
    walker.setHeatmap(heatmap.get());
    walker.setVictim(config.victimEntries > 0 ? &victimCache : nullptr,
                     Slot(config.victimHitCycles) * config.issueWidth);
}

FetchEngine::~FetchEngine() = default;

void
FetchEngine::setObserver(AccessObserver *obs)
{
    observer = obs;
    walker.setObserver(obs);
}

void
FetchEngine::takeObservations(RunObservations &out)
{
    if (sampler) {
        out.epochs = sampler->takeEpochs();
        out.sampleInterval = sampler->interval();
    }
    out.heatmap = std::move(heatmap);
    if (selector) {
        out.adaptive = std::move(adaptiveLog);
        adaptiveLog = AdaptiveLog{};
    }
    walker.setHeatmap(nullptr);
}

void
FetchEngine::resetStats()
{
    SimResults fresh;
    fresh.workload = stats.workload;
    fresh.policy = stats.policy;
    fresh.prefetch = stats.prefetch;
    fresh.misfetchSlots = stats.misfetchSlots;
    fresh.mispredictSlots = stats.mispredictSlots;
    stats = fresh;
    prefetchBaseline = prefetcher.issuedCount();
    statsBaseSlot = now;
    busBaseline = bus.transactions.value();
    // The heatmap mirrors the post-warmup counters in SimResults.
    if (heatmap)
        heatmap->reset();
    walker.setStats(&stats);
}

void
FetchEngine::runAudit(bool end_of_run)
{
    if (!auditor)
        return;
    TraceSpan span("audit", "check");
    // Predictor training due by the current slot is applied lazily
    // (at the next control instruction); an audit must observe the
    // same predictor state as the eager schedule would.
    drainResolves();
    syncStats();

    AuditContext ctx;
    ctx.config = &config;
    ctx.stats = &stats;
    ctx.busBaseTransactions = busBaseline;
    ctx.icache = &cache;
    ctx.resumeBuffer = &resumeBuffer;
    ctx.prefetcher = &prefetcher;
    ctx.predictor = &predictor;
    ctx.bus = &bus;
    ctx.adaptiveLog = selector ? &adaptiveLog : nullptr;
    ctx.endOfRun = end_of_run;

    if (auditor->runChecks(ctx) == 0)
        return;
    auditor->emitReport(config);
    const InvariantViolation &first = auditor->violations().front();
    panic("invariant '%s' violated at instruction %llu: %s",
          first.invariant.c_str(),
          static_cast<unsigned long long>(stats.instructions),
          first.detail.c_str());
}

void
FetchEngine::onAdaptiveBoundary()
{
    syncStats();
    adaptiveTicker->onBoundary(stats);
    const EpochRecord &closed = adaptiveTicker->epochs().back();
    adaptiveLog.choices.push_back(
        AdaptiveChoice{closed.epoch, config.policy,
                       closed.firstInstruction, closed.lastInstruction});

    // A boundary that coincides with the end of the budget closes the
    // final epoch; there is no next epoch to choose a policy for.
    if (stats.instructions >= config.instructionBudget)
        return;

    FetchPolicy next = selector->nextPolicy(closed, config.policy);
    if (next != config.policy) {
        ++adaptiveLog.switches;
        // The only place the run ever changes policy: every component
        // reads the policy through the engine's config (the walker by
        // reference, handleLineMiss directly), so the switch takes
        // effect from the next fetched instruction while cache,
        // predictor and clock state carry across untouched.
        config.policy = next;
    }
}

void
FetchEngine::drainResolvesDue()
{
    do {
        predictor.onResolve(pendingResolves.front().inst);
        pendingResolves.pop_front();
    } while (!pendingResolves.empty() &&
             pendingResolves.front().at <= now);
}

inline void
FetchEngine::maybePrefetch(Addr line_addr)
{
    if (prefetcher.enabled())
        prefetcher.onAccess(line_addr, now, config.missPenaltySlots());
}

inline void
FetchEngine::handleLineAccess(Addr line_addr)
{
    ++stats.demandAccesses;
    if (heatmap)
        heatmap->demandAccess(line_addr);
    if (cache.access(line_addr)) [[likely]] {
        if (observer)
            observer->onCorrectAccess(line_addr, true);
        maybePrefetch(line_addr);
        return;
    }
    handleLineMiss(line_addr);
}

void
FetchEngine::handleLineMiss(Addr line_addr)
{
    bool buffer_hit = false;

    if (resumeBuffer.matches(line_addr)) {
        // A previously initiated (wrong-path) fill of this very line:
        // no new memory request, but the data must finish arriving —
        // the Resume policy's residual cost.
        if (!resumeBuffer.isReady(now))
            advanceTo(resumeBuffer.readyAt(), PenaltyKind::Bus);
        resumeBuffer.drainIfReady(cache, now);
        buffer_hit = true;
    } else if (prefetcher.enabled() &&
               prefetcher.buffer().matches(line_addr)) {
        // Demand access to an in-flight or completed prefetch.
        if (!prefetcher.buffer().isReady(now))
            advanceTo(prefetcher.buffer().readyAt(), PenaltyKind::RtIcache);
        prefetcher.drain(now);
        buffer_hit = true;
    } else if (prefetcher.enabled() &&
               prefetcher.streamMatches(line_addr)) {
        // Demand access served by the stream-buffer head: wait for
        // the data if needed, then consume (which also requests the
        // next sequential line).
        if (prefetcher.streamReadyAt() > now)
            advanceTo(prefetcher.streamReadyAt(), PenaltyKind::RtIcache);
        prefetcher.streamConsume(now, config.missPenaltySlots());
        buffer_hit = true;
    }

    if (buffer_hit) {
        ++stats.bufferHits;
        if (observer)
            observer->onCorrectAccess(line_addr, true);
        maybePrefetch(line_addr);
        return;
    }

    // On-chip victim swap: satisfied in a cycle, no bus, no policy
    // tax (the conservative waits exist to protect bus bandwidth and
    // cache content from wrong-path *fills*; a swap is neither).
    if (config.victimEntries > 0 && victimCache.probe(line_addr)) {
        advanceTo(now + Slot(config.victimHitCycles) * config.issueWidth,
                  PenaltyKind::RtIcache);
        cache.insert(line_addr);    // displaced line spills back
        ++stats.bufferHits;
        if (observer)
            observer->onCorrectAccess(line_addr, true);
        maybePrefetch(line_addr);
        return;
    }

    // A genuine correct-path miss.
    ++stats.demandMisses;
    if (heatmap)
        heatmap->demandMiss(line_addr);
    if (observer)
        observer->onCorrectAccess(line_addr, false);

    // Conservative policies tax the miss before it may be serviced.
    switch (config.policy) {
      case FetchPolicy::Pessimistic:
        advanceTo(std::max(branchUnit.latestResolveAt(),
                           lastIssue + 1 + config.decodeSlots()),
                  PenaltyKind::ForceResolve);
        break;
      case FetchPolicy::Decode:
        advanceTo(lastIssue + 1 + config.decodeSlots(),
                  PenaltyKind::ForceResolve);
        break;
      default:
        break;
    }

    // "Written at the next I-cache miss": retire completed buffers.
    resumeBuffer.drainIfReady(cache, now);
    if (prefetcher.enabled())
        prefetcher.drain(now);

    // Wait for the bus (occupied by a wrong-path fill under Resume or
    // by a prefetch), then fill.
    if (bus.freeAt() > now)
        advanceTo(bus.freeAt(), PenaltyKind::Bus);
    Slot done = bus.acquire(now, hierarchy.fillSlots(line_addr));
    ++stats.demandFills;
    advanceTo(done, PenaltyKind::RtIcache);
    Eviction evicted = cache.insert(line_addr);
    if (heatmap)
        heatmap->correctFill(line_addr, evicted);

    // The first fetch from the freshly loaded line can trigger the
    // next-line prefetch (its first-ref bit was just set); a stream
    // buffer instead uses the miss itself as its allocation trigger.
    maybePrefetch(line_addr);
    if (prefetcher.enabled())
        prefetcher.onDemandMiss(line_addr, now, config.missPenaltySlots());
}

void
FetchEngine::fetchOne(const DynInst &inst)
{
    // Plain instructions neither read nor train the predictor, so the
    // resolve drain is only due ahead of control instructions (the
    // only other drain points — advanceTo and the audit hook — run
    // regardless of instruction class).
    if (inst.cls != InstClass::Plain)
        drainResolves();

    // Speculation-depth limit: a new conditional branch cannot be
    // fetched while maxUnresolved conditionals are in flight.
    if (inst.cls == InstClass::CondBranch &&
        branchUnit.unresolvedCond(now) >= config.maxUnresolved) {
        advanceTo(branchUnit.oldestCondResolve(), PenaltyKind::BranchFull);
        branchUnit.expire(now);
    }

    Addr line = cache.lineOf(inst.pc);
    if (line != curLine) {
        handleLineAccess(line);
        curLine = line;
    }

    Slot issue = now;
    lastIssue = issue;
    ++stats.instructions;
    now = issue + 1;

    if (inst.cls != InstClass::Plain)
        handleControl(inst, issue);
}

inline void
FetchEngine::fetchPlainRun(Addr pc, uint32_t count)
{
    // No resolve drain here: resolves only mutate predictor state,
    // and plains never read it — the next control instruction drains
    // before any prediction (advanceTo drains on every stall).
    //
    // The run's addresses are consecutive, so its lines are too: the
    // first (possibly partial) line occupancy is computed once, after
    // which stepping a whole line is a single add. The retired count
    // is likewise hoisted to one add per run — nothing below reads
    // stats.instructions, and runWith's step caps guarantee no
    // warmup/sampler/adaptive boundary falls inside a batch.
    const Addr line_bytes = cache.lineBytes();
    const uint32_t per_line = static_cast<uint32_t>(line_bytes / kInstBytes);
    stats.instructions += count;
    Addr line = cache.lineOf(pc);
    uint32_t in_line = static_cast<uint32_t>(std::min<uint64_t>(
        count, (line + line_bytes - pc) / kInstBytes));
    for (;;) {
        if (line != curLine) {
            handleLineAccess(line);
            curLine = line;
        }
        // The per-line clock ordering is load-bearing: a probe's stall
        // charges depend on now at probe time, and Decode/Pessimistic
        // miss taxes read lastIssue — both must see exactly the state
        // an instruction-at-a-time fetch would produce.
        now += in_line;
        lastIssue = now - 1;
        count -= in_line;
        if (count == 0)
            break;
        line += line_bytes;
        in_line = count < per_line ? count : per_line;
    }
}

void
FetchEngine::handleControl(const DynInst &inst, Slot issue)
{
    ++stats.controlInsts;
    bool is_cond = inst.cls == InstClass::CondBranch;
    if (is_cond)
        ++stats.condBranches;

    Prediction pred = predictor.predict(inst.pc, inst.cls);
    BranchOutcome outcome = BranchPredictor::classify(pred, inst);

    // Direct unconditional control is certain once decoded; everything
    // else waits for resolve.
    bool certain_at_decode =
        inst.cls == InstClass::Jump || inst.cls == InstClass::Call;
    Slot decode_done = issue + 1 + config.decodeSlots();
    Slot resolve_done = issue + 1 + config.resolveSlots();
    branchUnit.noteFetch(is_cond,
                         certain_at_decode ? decode_done : resolve_done);

    // Decode-time speculative BTB insertion (predicted-taken only).
    predictor.onDecode(inst.pc, StaticInst{inst.cls, inst.target},
                       pred.taken);
    // Resolve-time PHT / indirect-target training.
    pendingResolves.push_back(PendingResolve{resolve_done, inst});

    Slot window_start = issue + 1;

    switch (outcome) {
      case BranchOutcome::Correct:
        if (inst.taken) {
            if (prefetcher.enabled()) {
                prefetcher.trainTarget(cache.lineOf(inst.pc),
                                       cache.lineOf(inst.target));
            }
            curLine = kNoLine;    // the stream moved; re-access
        }
        return;

      case BranchOutcome::Misfetch: {
        ++stats.misfetches;
        // The depth query is only needed when a wrong-path walk can
        // consume further speculation slots — keep it off the
        // correctly-predicted (majority) path.
        size_t unresolved = branchUnit.unresolvedCond(now);
        Slot window_end = window_start + config.decodeSlots();
        stats.penalty.charge(PenaltyKind::Branch, config.decodeSlots());
        // Until decode produces the target, fetch runs down the
        // fall-through path.
        Slot blocked = walker.walk(inst.pc + kInstBytes, window_start,
                                   window_end, unresolved);
        now = window_end;
        if (blocked > window_end)
            advanceTo(blocked, PenaltyKind::WrongIcache);
        curLine = kNoLine;
        return;
      }

      case BranchOutcome::DirMispredict: {
        ++stats.dirMispredicts;
        size_t unresolved = branchUnit.unresolvedCond(now);
        Slot window_end = window_start + config.resolveSlots();
        stats.penalty.charge(PenaltyKind::Branch, config.resolveSlots());

        Slot blocked = window_end;
        if (pred.taken) {
            if (pred.targetKnown) {
                blocked = walker.walk(pred.target, window_start,
                                      window_end, unresolved);
            } else {
                // Misfetch inside the mispredict: fall-through until
                // decode computes the (wrong) target, then that path.
                Slot mid = std::min(window_end,
                                    window_start + config.decodeSlots());
                Slot phase1 = walker.walk(inst.pc + kInstBytes,
                                          window_start, mid, unresolved);
                Slot start2 = std::max(mid, phase1);
                blocked = phase1;
                if (start2 < window_end) {
                    blocked = walker.walk(inst.target, start2, window_end,
                                          unresolved);
                }
            }
        } else {
            // Predicted not-taken, actually taken: the wrong path is
            // the fall-through.
            blocked = walker.walk(inst.pc + kInstBytes, window_start,
                                  window_end, unresolved);
        }

        now = window_end;
        if (blocked > window_end)
            advanceTo(blocked, PenaltyKind::WrongIcache);
        curLine = kNoLine;
        return;
      }

      case BranchOutcome::TargetMispredict: {
        ++stats.targetMispredicts;
        Slot window_end = window_start + config.resolveSlots();
        stats.penalty.charge(PenaltyKind::Branch, config.resolveSlots());
        Slot blocked = window_end;
        if (pred.targetKnown) {
            size_t unresolved = branchUnit.unresolvedCond(now);
            blocked = walker.walk(pred.target, window_start, window_end,
                                  unresolved);
        }
        // With no predicted target at all, fetch simply idles until
        // resolve: same penalty, no cache side effects.
        now = window_end;
        if (blocked > window_end)
            advanceTo(blocked, PenaltyKind::WrongIcache);
        curLine = kNoLine;
        return;
      }
    }
}

template <typename Source>
inline bool
FetchEngine::step(Source &source, uint64_t cap)
{
    // Both sources hand out plain runs in bulk (a snapshot's RLE run,
    // the executor's block body); burn them through the
    // arithmetic-only fast path, and step one instruction only when
    // no run is ready.
    Addr run_pc;
    uint32_t got = source.takePlainRun(
        run_pc, static_cast<uint32_t>(std::min<uint64_t>(cap, UINT32_MAX)));
    if (got > 0) {
        fetchPlainRun(run_pc, got);
        return true;
    }
    DynInst inst;
    if (!source.next(inst))
        return false;
    fetchOne(inst);
    return true;
}

template <typename Source>
SimResults
FetchEngine::runWith(Source &source)
{
    static_assert(std::is_final_v<Source>,
                  "runWith needs a final source so next() and "
                  "takePlainRun() bind statically");
    stats.policy = config.policy;
    stats.prefetch = config.effectivePrefetchKind() != PrefetchKind::None;
    stats.misfetchSlots = static_cast<uint64_t>(config.decodeSlots());
    stats.mispredictSlots = static_cast<uint64_t>(config.resolveSlots());

    // Cooperative watchdog (fault/guard.hh): guarded sweeps arm a
    // per-thread wall-clock/instruction budget, and — since a thread
    // cannot be preempted portably — the run itself must notice
    // expiry. Poll once up front (deterministic for already-expired
    // budgets) and then on a cheap instruction cadence. Unarmed runs
    // pay a single branch per batch.
    const bool watchdog_armed = Watchdog::armed();
    if (watchdog_armed)
        Watchdog::poll(0);
    uint64_t next_watchdog =
        watchdog_armed ? kWatchdogPollInterval : UINT64_MAX;

    // Warmup takes the measured region's step, capped at the warmup
    // boundary; stats.instructions counts it until resetStats().
    const uint64_t warmup = config.warmupInstructions;
    while (stats.instructions < warmup &&
           step(source, warmup - stats.instructions)) {
        if (stats.instructions >= next_watchdog) {
            Watchdog::poll(stats.instructions);
            next_watchdog += kWatchdogPollInterval;
        }
    }
    const uint64_t retired_warmup = stats.instructions;
    if (warmup > 0) {
        resetStats();
        next_watchdog =
            watchdog_armed ? kWatchdogPollInterval : UINT64_MAX;
    }

    // Interval sampler (src/obs): baseline after the warmup reset so
    // epochs cover exactly the measured region. Disabled runs take the
    // same never-taken branch the watchdog does.
    uint64_t next_sample = UINT64_MAX;
    syncStats();
    if (sampler) {
        sampler->begin(stats);
        next_sample = sampler->interval();
    }

    // Adaptive decision point (src/adaptive): the selector may change
    // config.policy only at exact multiples of the adaptive interval,
    // counted — like the sampler — from the warmup reset. Epoch 0
    // always runs under the configured base policy.
    uint64_t next_adaptive = UINT64_MAX;
    if (selector) {
        adaptiveTicker->begin(stats);
        adaptiveLog.interval = config.adaptiveInterval;
        adaptiveLog.basePolicy = config.policy;
        next_adaptive = config.adaptiveInterval;
    }

    // Paranoid mode audits every checkpointInterval retired
    // instructions; cheap mode audits only at end-of-run.
    uint64_t audit_step = 0;
    if (auditor && config.checkLevel == CheckLevel::Paranoid)
        audit_step = config.checkpointInterval;
    uint64_t next_audit = audit_step ? audit_step : UINT64_MAX;

    const uint64_t budget = config.instructionBudget;
    for (;;) {
        uint64_t room = budget - stats.instructions;
        if (room == 0)
            break;
        // Cap each step at the next epoch boundary so the sampler and
        // the adaptive decision point see exact retired-instruction
        // counts; with both off the caps are UINT64_MAX and never
        // bind.
        uint64_t cap = std::min(room, next_sample - stats.instructions);
        cap = std::min(cap, next_adaptive - stats.instructions);
        if (!step(source, cap))
            break;
        if (stats.instructions >= next_sample) {
            syncStats();
            sampler->onBoundary(stats);
            next_sample += sampler->interval();
        }
        if (stats.instructions >= next_adaptive) {
            onAdaptiveBoundary();
            next_adaptive += config.adaptiveInterval;
        }
        if (stats.instructions >= next_audit) {
            runAudit(false);
            next_audit += audit_step;
        }
        if (stats.instructions >= next_watchdog) {
            Watchdog::poll(retired_warmup + stats.instructions);
            next_watchdog += kWatchdogPollInterval;
        }
    }

    // Apply any training still due by the final slot so the predictor
    // ends the run in the same state the eager drain schedule left it.
    drainResolves();
    syncStats();
    if (sampler)
        sampler->finish(stats);
    if (selector) {
        // Close a final partial epoch (runs whose budget is not a
        // multiple of the interval, or that exhausted their source).
        adaptiveTicker->finish(stats);
        const std::vector<EpochRecord> &ticks = adaptiveTicker->epochs();
        if (ticks.size() > adaptiveLog.choices.size()) {
            const EpochRecord &last = ticks.back();
            adaptiveLog.choices.push_back(
                AdaptiveChoice{last.epoch, config.policy,
                               last.firstInstruction,
                               last.lastInstruction});
        }
    }
    runAudit(true);
    return stats;
}

template SimResults FetchEngine::runWith<Executor>(Executor &);
template SimResults
FetchEngine::runWith<SnapshotReplaySource>(SnapshotReplaySource &);

} // namespace specfetch
