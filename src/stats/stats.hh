/**
 * @file
 * Event counters and guarded ratios for the simulator's components.
 * The run-level counters a simulation reports are declared in
 * core/counters.hh; histogram.hh holds the distribution summaries.
 */

#ifndef SPECFETCH_STATS_STATS_HH_
#define SPECFETCH_STATS_STATS_HH_

#include <cstdint>

namespace specfetch {

/**
 * A 64-bit event counter. Counters are value types; components own
 * them directly.
 */
class Counter
{
  public:
    Counter() = default;

    Counter &
    operator++()
    {
        ++count;
        return *this;
    }

    /** Post-increment: returns the value *before* the bump, like any
     *  built-in integer. */
    Counter
    operator++(int)
    {
        Counter old = *this;
        ++count;
        return old;
    }

    Counter &
    operator+=(uint64_t n)
    {
        count += n;
        return *this;
    }

    uint64_t value() const { return count; }
    void reset() { count = 0; }

  private:
    uint64_t count = 0;
};

/** Ratio of two counters, guarded against zero denominators. */
inline double
ratioOf(uint64_t numerator, uint64_t denominator)
{
    return denominator == 0
        ? 0.0
        : static_cast<double>(numerator) / static_cast<double>(denominator);
}

} // namespace specfetch

#endif // SPECFETCH_STATS_STATS_HH_
