/**
 * @file
 * ISPI penalty accounting: the paper's primary metric.
 *
 * ISPI = instruction issue slots lost per correct-path instruction,
 * decomposed exactly as in Figures 1-4:
 *
 *  - branch_full:   fetch stalled because the machine already has the
 *                   maximum number of unresolved branches in flight;
 *  - branch:        misfetch (8-slot) and mispredict (16-slot)
 *                   redirect penalties;
 *  - force_resolve: Pessimistic/Decode delaying a correct-path miss
 *                   until branches resolve / prior decode completes;
 *  - rt_icache:     waiting for fills of correct-path misses;
 *  - wrong_icache:  the part of a wrong-path fill that outlasts the
 *                   branch's own redirect window (Optimistic/Decode);
 *  - bus:           a correct-path request waiting for the bus while a
 *                   previously initiated wrong-path fill (Resume) or a
 *                   prefetch occupies it.
 */

#ifndef SPECFETCH_CORE_PENALTY_HH_
#define SPECFETCH_CORE_PENALTY_HH_

#include <cstdint>
#include <string>
#include <vector>

namespace specfetch {

/** The penalty components, in stacked-bar order (bottom-up). */
enum class PenaltyKind : uint8_t
{
    BranchFull,
    Branch,
    ForceResolve,
    RtIcache,
    WrongIcache,
    Bus,
};

constexpr unsigned kNumPenaltyKinds = 6;

/** Figure-legend name of a component ("branch_full", ...). */
std::string toString(PenaltyKind kind);

/**
 * Slot totals per component plus derived ISPI values.
 */
class PenaltyBreakdown
{
  public:
    /** Charge @p slots lost slots to @p kind. */
    void
    charge(PenaltyKind kind, uint64_t slots)
    {
        slotsLost[static_cast<size_t>(kind)] += slots;
    }

    uint64_t slots(PenaltyKind kind) const
    {
        return slotsLost[static_cast<size_t>(kind)];
    }

    uint64_t totalSlots() const;

    /** Component ISPI for a run that retired @p instructions. */
    double ispi(PenaltyKind kind, uint64_t instructions) const;

    /** Total ISPI. */
    double totalIspi(uint64_t instructions) const;

    PenaltyBreakdown &operator+=(const PenaltyBreakdown &other);

    bool operator==(const PenaltyBreakdown &other) const = default;

    void reset();

  private:
    uint64_t slotsLost[kNumPenaltyKinds] = {};
};

/** All components, stacked-bar order. */
const std::vector<PenaltyKind> &allPenaltyKinds();

} // namespace specfetch

#endif // SPECFETCH_CORE_PENALTY_HH_
