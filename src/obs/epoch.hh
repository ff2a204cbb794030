/**
 * @file
 * One epoch of the interval time series (DESIGN.md §11).
 *
 * An epoch is the delta of the run's statistics over a fixed window of
 * retired correct-path instructions. Every field is a *delta* over the
 * epoch, never a running total, so a consumer can plot transient
 * behaviour (phase-resolved ISPI, pollution bursts, prefetch traffic)
 * without differencing, and concatenated epochs sum exactly to the
 * run's end-of-run counters — an identity the obs tests pin.
 */

#ifndef SPECFETCH_OBS_EPOCH_HH_
#define SPECFETCH_OBS_EPOCH_HH_

#include <cstdint>

#include "core/counters.hh"
#include "core/penalty.hh"

namespace specfetch {

/**
 * Statistics delta over one sampling window: the difference of two
 * snapshots of the run's counters, penalty breakdown and slot clock.
 */
struct EpochRecord : RunCounters
{
    /** Zero-based epoch index within the run. */
    uint64_t epoch = 0;
    /** Retired-instruction window [first, last) this epoch covers
     *  (post-warmup counts, matching SimResults::instructions). */
    uint64_t firstInstruction = 0;
    uint64_t lastInstruction = 0;
    /** Issue slots elapsed during the epoch. */
    uint64_t slots = 0;
    /** Lost slots charged to each penalty component this epoch. */
    PenaltyBreakdown penalty;

    /** True only for a final epoch cut short by the end of the run. */
    bool partial = false;

    /** Instructions retired this epoch. */
    uint64_t
    instructions() const
    {
        return lastInstruction - firstInstruction;
    }

    /** Lost slots per instruction over this epoch alone. */
    double ispi() const { return penalty.totalIspi(instructions()); }

    /** One component's ISPI over this epoch. */
    double
    ispiOf(PenaltyKind kind) const
    {
        return penalty.ispi(kind, instructions());
    }

    /** Correct-path misses per instruction this epoch, in percent. */
    double
    missRatePercent() const
    {
        return 100.0 * ratioOf(demandMisses, instructions());
    }

    /** Fraction of the epoch's slots the bus spent blocking fetch. */
    double
    busWaitFraction() const
    {
        return ratioOf(penalty.slots(PenaltyKind::Bus), slots);
    }
};

} // namespace specfetch

#endif // SPECFETCH_OBS_EPOCH_HH_
