/**
 * @file
 * The run's event counters, declared once.
 *
 * Every count the paper's tables are built from (Table 3 branch
 * outcomes, Table 4 miss counts, Table 7 traffic) is a RunCounters
 * member with one row in kCounterFields. SimResults (the end-of-run
 * totals) and EpochRecord (the delta over one sampling window) both
 * derive from RunCounters, and every site that handles the counters
 * one by one — equality, the run and epoch records, the stat dump,
 * the sampler delta — iterates the table instead of naming members.
 * Adding a counter is one member plus one row; a member without a row
 * fails the static_assert below.
 */

#ifndef SPECFETCH_CORE_COUNTERS_HH_
#define SPECFETCH_CORE_COUNTERS_HH_

#include <cstdint>
#include <iterator>

#include "stats/stats.hh"

namespace specfetch {

/** The run's event counters: raw counts, one kCounterFields row each. */
struct RunCounters
{
    uint64_t controlInsts = 0;      ///< correct-path control instructions
    uint64_t condBranches = 0;
    uint64_t misfetches = 0;        ///< 8-slot redirects (BTB)
    uint64_t dirMispredicts = 0;    ///< 16-slot direction (PHT)
    uint64_t targetMispredicts = 0; ///< 16-slot indirect target (BTB)
    uint64_t demandAccesses = 0;    ///< line-granular fetch accesses
    uint64_t demandMisses = 0;      ///< missed in array and buffers
    uint64_t demandFills = 0;       ///< fills actually sent to memory
    uint64_t bufferHits = 0;        ///< satisfied by resume/prefetch buffer
    uint64_t wrongAccesses = 0;     ///< wrong-path line accesses
    uint64_t wrongMisses = 0;       ///< wrong-path misses observed
    uint64_t wrongFills = 0;        ///< ... that were serviced
    uint64_t prefetchesIssued = 0;

    /** Total memory transactions (Table 7 traffic). */
    uint64_t
    memoryTransactions() const
    {
        return demandFills + wrongFills + prefetchesIssued;
    }

    /** Conditional-branch direction accuracy (PHT quality). */
    double
    condAccuracy() const
    {
        return condBranches == 0
            ? 1.0
            : 1.0 - ratioOf(dirMispredicts, condBranches);
    }

    bool operator==(const RunCounters &other) const = default;

    RunCounters &operator+=(const RunCounters &other);
};

/** One row of the counter table. */
struct CounterField
{
    uint64_t RunCounters::*member;
    /** Key in run and epoch records ("demand_misses"); the stat dump
     *  names the counter sim.<group>.<key>. */
    const char *key;
    /** Stat-dump group: "branch" or "icache". */
    const char *group;
    const char *description;
};

/** Every counter, in record order. */
inline constexpr CounterField kCounterFields[] = {
    {&RunCounters::controlInsts, "control_insts", "branch",
     "control-flow instructions"},
    {&RunCounters::condBranches, "cond_branches", "branch",
     "conditional branches"},
    {&RunCounters::misfetches, "misfetches", "branch", "8-slot redirects"},
    {&RunCounters::dirMispredicts, "dir_mispredicts", "branch",
     "direction mispredicts"},
    {&RunCounters::targetMispredicts, "target_mispredicts", "branch",
     "indirect-target mispredicts"},
    {&RunCounters::demandAccesses, "demand_accesses", "icache",
     "correct-path line accesses"},
    {&RunCounters::demandMisses, "demand_misses", "icache",
     "correct-path misses"},
    {&RunCounters::demandFills, "demand_fills", "icache",
     "fills sent to memory"},
    {&RunCounters::bufferHits, "buffer_hits", "icache",
     "served by resume/prefetch buffer"},
    {&RunCounters::wrongAccesses, "wrong_accesses", "icache",
     "wrong-path accesses"},
    {&RunCounters::wrongMisses, "wrong_misses", "icache",
     "wrong-path misses"},
    {&RunCounters::wrongFills, "wrong_fills", "icache",
     "wrong-path misses serviced"},
    {&RunCounters::prefetchesIssued, "prefetches_issued", "icache",
     "prefetches issued"},
};

static_assert(sizeof(RunCounters) ==
                  std::size(kCounterFields) * sizeof(uint64_t),
              "every RunCounters member needs a row in kCounterFields");

inline RunCounters &
RunCounters::operator+=(const RunCounters &other)
{
    for (const CounterField &field : kCounterFields)
        this->*field.member += other.*field.member;
    return *this;
}

/** Counter-wise difference: the counts accrued between two snapshots. */
inline RunCounters
operator-(const RunCounters &later, const RunCounters &earlier)
{
    RunCounters delta;
    for (const CounterField &field : kCounterFields)
        delta.*field.member = later.*field.member - earlier.*field.member;
    return delta;
}

} // namespace specfetch

#endif // SPECFETCH_CORE_COUNTERS_HH_
