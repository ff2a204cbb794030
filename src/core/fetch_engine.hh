/**
 * @file
 * The slot-driven front-end model (DESIGN.md §3).
 *
 * The engine consumes the correct-path instruction stream and charges
 * every lost issue slot to one of the paper's penalty components. It
 * models the machine at issue-slot granularity: on the 4-wide
 * baseline, 4 slots = 1 cycle, a misfetch costs decodeSlots = 8 lost
 * slots and a mispredict resolveSlots = 16, and an I-cache miss
 * penalty of 5 cycles occupies the bus for 20 slots — the paper's own
 * arithmetic (§4.1), which is why this model reproduces its ISPI
 * accounting exactly while remaining fast enough for
 * hundreds-of-millions-of-instruction runs.
 */

#ifndef SPECFETCH_CORE_FETCH_ENGINE_HH_
#define SPECFETCH_CORE_FETCH_ENGINE_HH_

#include <memory>

#include "adaptive/adaptive_log.hh"
#include "branch/predictor.hh"
#include "cache/bus.hh"
#include "cache/icache.hh"
#include "cache/line_buffer.hh"
#include "cache/prefetch_unit.hh"
#include "cache/victim_cache.hh"
#include "core/branch_unit.hh"
#include "core/config.hh"
#include "core/results.hh"
#include "core/wrong_path_walker.hh"
#include "isa/program_image.hh"
#include "util/ring_buffer.hh"
#include "workload/executor.hh"

#include "obs/observations.hh"

namespace specfetch {

class InvariantAuditor;
class IntervalSampler;
class PolicySelector;

/**
 * One simulated front end. Construct per run (state is not reusable
 * across runs).
 */
class FetchEngine
{
  public:
    /**
     * @param config Machine + run configuration (validated here).
     * @param image  Static program image for wrong-path fetches.
     */
    FetchEngine(const SimConfig &config, const ProgramImage &image);
    ~FetchEngine();

    /** Attach a lockstep observer (miss classification). */
    void setObserver(AccessObserver *obs);

    /**
     * Run until the configured instruction budget is retired or the
     * source is exhausted. @p Source is a final concrete class, so
     * the per-instruction source step is statically bound and inlined
     * instead of being a virtual call per instruction. Instantiated
     * in fetch_engine.cc for exactly two sources: Executor (live) and
     * SnapshotReplaySource (replay).
     *
     * One loop serves every policy and prefetcher (DESIGN.md §14).
     * config.policy is read only where a miss or a wrong-path walk
     * needs it, so an adaptive selector may rewrite it at an epoch
     * boundary.
     */
    template <typename Source>
    SimResults runWith(Source &source);

    /**
     * Move whatever the armed collectors gathered (epoch series,
     * heatmap) out of the engine. Call after runWith(); a disarmed engine
     * yields an empty object.
     */
    void takeObservations(RunObservations &out);

    /** @name Component access for tests @{ */
    const ICache &icache() const { return cache; }
    const BranchPredictor &branchPredictor() const { return predictor; }
    const MemoryBus &memoryBus() const { return bus; }
    /** @} */

  private:
    /** Advance the slot clock to @p target, charging lost slots. */
    void
    advanceTo(Slot target, PenaltyKind kind)
    {
        if (target <= now)
            return;
        stats.penalty.charge(kind, static_cast<uint64_t>(target - now));
        now = target;
        drainResolves();
    }

    /**
     * Apply resolve-time predictor updates due by the current slot.
     * Polled once per fetched control instruction and on every clock
     * advance, so the not-due check inlines at every call site; the
     * training loop itself (one iteration per resolved control) stays
     * out of line.
     */
    void
    drainResolves()
    {
        if (!pendingResolves.empty() && pendingResolves.front().at <= now)
            drainResolvesDue();
    }

    /** The training loop behind drainResolves(); call only when the
     *  front entry is due. */
    void drainResolvesDue();

    /**
     * Handle the correct-path access to @p line_addr (may stall).
     * Forced inline, like fetchPlainRun and maybePrefetch: the hit
     * path — one probe and a likely-taken branch — must stay inside
     * the per-line batch loop (DESIGN.md §14).
     */
    [[gnu::always_inline]] inline void handleLineAccess(Addr line_addr);

    /**
     * The miss continuation of handleLineAccess (fill buffers, victim
     * swap, conservative-policy tax, bus fill), kept out of line.
     */
    void handleLineMiss(Addr line_addr);

    /** Issue one correct-path instruction. */
    void fetchOne(const DynInst &inst);

    /**
     * Issue @p count contiguous correct-path plain instructions
     * starting at @p pc (the plain fast path both sources feed).
     * Equivalent to count fetchOne() calls on plain instructions: the
     * run is grouped into per-line probe batches — one tag probe per
     * cache line crossed, then one add per batch for the
     * retired-instruction count and the slot clock (plains charge no
     * penalties and never read the predictor). DESIGN.md §14 states
     * the batching invariants.
     */
    [[gnu::always_inline]] inline void fetchPlainRun(Addr pc,
                                                     uint32_t count);

    /** Handle a control instruction's outcome after issue. */
    void handleControl(const DynInst &inst, Slot issue);

    /** Trigger next-line prefetching for a correct-path access. */
    [[gnu::always_inline]] inline void maybePrefetch(Addr line_addr);

    /**
     * Fetch at most @p cap (> 0) instructions from @p source: a plain
     * run if the source has one ready, else one instruction. The one
     * step of both warmup and the measured region; false once the
     * source is exhausted. Forced inline: it is the per-batch path
     * of both loops.
     */
    template <typename Source>
    [[gnu::always_inline]] inline bool step(Source &source, uint64_t cap);

    /** Zero the statistics after warmup (machine state persists). */
    void resetStats();

    /**
     * Bring the two stats the engine keeps outside SimResults up to
     * date — the slot clock and the prefetch unit's issue count, both
     * counted from the stats reset — before stats is handed to the
     * sampler, the adaptive ticker, the auditor or the caller.
     */
    void
    syncStats()
    {
        stats.finalSlot = now - statsBaseSlot;
        stats.prefetchesIssued = prefetcher.issuedCount() - prefetchBaseline;
    }

    /**
     * Adaptive decision point (config.adaptiveSelector != Off): close
     * the epoch that just ended, log the policy that governed it, and
     * apply the selector's choice for the next epoch. Called only at
     * exact multiples of config.adaptiveInterval, so the policy can
     * change nowhere else (DESIGN.md §12 switching contract).
     */
    void onAdaptiveBoundary();

    /**
     * Run the registered invariants (config.checkLevel != Off). On any
     * violation: emit the structured report and stop the run.
     */
    void runAudit(bool end_of_run);

    SimConfig config;
    const ProgramImage &image;

    BranchPredictor predictor;
    ICache cache;
    MemoryBus bus;
    LineBuffer resumeBuffer;
    MemoryHierarchy hierarchy;
    VictimCache victimCache;
    PrefetchUnit prefetcher;
    BranchUnit branchUnit;
    WrongPathWalker walker;

    /** Pending resolve-time predictor updates, in issue order. */
    struct PendingResolve
    {
        Slot at = 0;
        DynInst inst;
    };
    RingQueue<PendingResolve> pendingResolves;

    Slot now = 0;
    Slot lastIssue = -1;
    Addr curLine = 0;
    SimResults stats;
    /** Prefetch count at the last stats reset (warmup boundary). */
    uint64_t prefetchBaseline = 0;
    /** Slot clock at the last stats reset (finalSlot counts from it). */
    Slot statsBaseSlot = 0;
    /** Bus transactions at the last stats reset. */
    uint64_t busBaseline = 0;
    /** Non-null iff config.checkLevel != Off. */
    std::unique_ptr<InvariantAuditor> auditor;
    /** Non-null iff config.sampleInterval > 0 (src/obs). */
    std::unique_ptr<IntervalSampler> sampler;
    /** Non-null iff config.setHeatmap (src/obs). */
    std::unique_ptr<SetHeatmap> heatmap;
    /** @name Adaptive selection (src/adaptive) @{ */
    /** Non-null iff config.adaptiveSelector != Off. */
    std::unique_ptr<PolicySelector> selector;
    /** Epoch ticker of the decision point: reuses the interval
     *  sampler's delta machinery, independent of the obs sampler. */
    std::unique_ptr<IntervalSampler> adaptiveTicker;
    AdaptiveLog adaptiveLog;
    /** @} */
    AccessObserver *observer = nullptr;
};

} // namespace specfetch

#endif // SPECFETCH_CORE_FETCH_ENGINE_HH_
