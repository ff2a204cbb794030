/** @file Unit tests for util/bit_ops.hh. */

#include "util/bit_ops.hh"

#include <gtest/gtest.h>

namespace specfetch {
namespace {

TEST(BitOps, IsPowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(4096));
    EXPECT_FALSE(isPowerOfTwo(4097));
    EXPECT_TRUE(isPowerOfTwo(uint64_t{1} << 63));
    EXPECT_FALSE(isPowerOfTwo(~uint64_t{0}));
}

TEST(BitOps, Log2Floor)
{
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(2), 1u);
    EXPECT_EQ(log2Floor(3), 1u);
    EXPECT_EQ(log2Floor(4), 2u);
    EXPECT_EQ(log2Floor(1023), 9u);
    EXPECT_EQ(log2Floor(1024), 10u);
    EXPECT_EQ(log2Floor(uint64_t{1} << 63), 63u);
}

TEST(BitOps, Log2Ceil)
{
    EXPECT_EQ(log2Ceil(1), 0u);
    EXPECT_EQ(log2Ceil(2), 1u);
    EXPECT_EQ(log2Ceil(3), 2u);
    EXPECT_EQ(log2Ceil(4), 2u);
    EXPECT_EQ(log2Ceil(5), 3u);
    EXPECT_EQ(log2Ceil(1024), 10u);
    EXPECT_EQ(log2Ceil(1025), 11u);
}

TEST(BitOps, Log2RoundTripOnPowersOfTwo)
{
    for (unsigned bit = 0; bit < 64; ++bit) {
        uint64_t value = uint64_t{1} << bit;
        EXPECT_EQ(log2Floor(value), bit);
        EXPECT_EQ(log2Ceil(value), bit);
    }
}

TEST(BitOps, Mask)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(1), 1u);
    EXPECT_EQ(mask(8), 0xffu);
    EXPECT_EQ(mask(63), ~uint64_t{0} >> 1);
    EXPECT_EQ(mask(64), ~uint64_t{0});
    EXPECT_EQ(mask(100), ~uint64_t{0});
}

TEST(BitOps, Bits)
{
    EXPECT_EQ(bits(0xabcd, 0, 4), 0xdu);
    EXPECT_EQ(bits(0xabcd, 4, 4), 0xcu);
    EXPECT_EQ(bits(0xabcd, 8, 8), 0xabu);
    EXPECT_EQ(bits(0xff, 4, 0), 0u);
}

} // namespace
} // namespace specfetch
