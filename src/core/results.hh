/**
 * @file
 * Per-run simulation results and derived metrics.
 */

#ifndef SPECFETCH_CORE_RESULTS_HH_
#define SPECFETCH_CORE_RESULTS_HH_

#include <functional>
#include <string>

#include "core/counters.hh"
#include "core/penalty.hh"
#include "core/policy.hh"
#include "isa/types.hh"

namespace specfetch {

/**
 * Everything one simulation run produces: the event counters
 * (RunCounters, core/counters.hh) plus the run's identity, slot clock
 * and penalty breakdown. Counts are raw; derived metrics (ISPI, miss
 * ratios, traffic) are methods so callers cannot desynchronize
 * numerators and denominators.
 */
struct SimResults : RunCounters
{
    std::string workload;
    FetchPolicy policy = FetchPolicy::Oracle;
    bool prefetch = false;

    /** Correct-path instructions retired (the ISPI denominator). */
    uint64_t instructions = 0;
    /** Slot penalties of the simulated machine (filled by the engine;
     *  8/16 on the paper baseline). */
    uint64_t misfetchSlots = 8;
    uint64_t mispredictSlots = 16;
    /** Slots elapsed since the stats reset (instructions + all lost
     *  slots). */
    Slot finalSlot = 0;

    PenaltyBreakdown penalty;

    /** Total ISPI (paper Figures 1-2, Tables 5-6). */
    double ispi() const { return penalty.totalIspi(instructions); }

    /** One component's ISPI. */
    double
    ispiOf(PenaltyKind kind) const
    {
        return penalty.ispi(kind, instructions);
    }

    /** Correct-path miss ratio in percent (paper Table 3 convention:
     *  misses per instruction). */
    double missRatePercent() const;

    /** Wrong-path miss ratio in percent of correct-path instructions
     *  (paper Table 4 "WP" convention). */
    double wrongMissRatePercent() const;

    /** ISPI due to PHT direction mispredicts only (Table 3). */
    double phtMispredictIspi() const;
    /** ISPI due to BTB misfetches only (Table 3). */
    double btbMisfetchIspi() const;
    /** ISPI due to BTB target mispredicts only (Table 3). */
    double btbMispredictIspi() const;

    /** Multi-line human-readable summary. */
    std::string summary() const;

    /** Full gem5-style stats dump: every counter and derived metric,
     *  one per line, with descriptions. */
    std::string statsDump() const;

    /**
     * Visit every statistic statsDump() renders, as (dot-qualified
     * name, description, is_counter) — the discovery surface behind
     * the bench harnesses' --list-stats.
     */
    void visitStats(
        const std::function<void(const std::string &name,
                                 const std::string &description,
                                 bool isCounter)> &fn) const;
};

/** Exact equality over every raw field (identity, counters, penalty
 *  slots). Used by the sweep-determinism and golden-file tests; the
 *  derived metrics need no comparison since they are pure functions of
 *  the raw fields. */
bool operator==(const SimResults &a, const SimResults &b);

} // namespace specfetch

#endif // SPECFETCH_CORE_RESULTS_HH_
