/**
 * @file
 * Small bit-manipulation helpers shared by the cache and predictor
 * index arithmetic. All are constexpr and total (defined for every
 * input) so they can be used in static_asserts and table sizing.
 */

#ifndef SPECFETCH_UTIL_BIT_OPS_HH_
#define SPECFETCH_UTIL_BIT_OPS_HH_

#include <cstdint>

namespace specfetch {

/** True iff @p value is a power of two (0 is not). */
constexpr bool
isPowerOfTwo(uint64_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/** Floor of log2(value); log2Floor(0) is defined as 0. */
constexpr unsigned
log2Floor(uint64_t value)
{
    unsigned result = 0;
    while (value > 1) {
        value >>= 1;
        ++result;
    }
    return result;
}

/** Ceiling of log2(value); log2Ceil(0) and log2Ceil(1) are 0. */
constexpr unsigned
log2Ceil(uint64_t value)
{
    if (value <= 1)
        return 0;
    return log2Floor(value - 1) + 1;
}

/** A mask with the low @p bits bits set. mask(64) is all ones. */
constexpr uint64_t
mask(unsigned bits)
{
    return bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
}

/** Extract bits [first, first+count) of @p value. */
constexpr uint64_t
bits(uint64_t value, unsigned first, unsigned count)
{
    return (value >> first) & mask(count);
}

} // namespace specfetch

#endif // SPECFETCH_UTIL_BIT_OPS_HH_
