/**
 * @file
 * Small bit-manipulation helpers used by the codec, SIMT stack and
 * register-file models.
 */

#ifndef GSCALAR_COMMON_BIT_UTILS_HPP
#define GSCALAR_COMMON_BIT_UTILS_HPP

#include <bit>
#include <cstdint>

#include "types.hpp"

namespace gs
{

/** Number of set bits in a lane mask. */
inline unsigned
popCount(LaneMask m)
{
    return static_cast<unsigned>(std::popcount(m));
}

/** Index of the lowest set bit; undefined for m == 0. */
inline unsigned
firstLane(LaneMask m)
{
    return static_cast<unsigned>(std::countr_zero(m));
}

/** Extract byte @p i (0 = LSB) of a word. */
constexpr std::uint8_t
byteOf(Word w, unsigned i)
{
    return static_cast<std::uint8_t>(w >> (8 * i));
}

/** Replace byte @p i (0 = LSB) of @p w with @p b. */
constexpr Word
withByte(Word w, unsigned i, std::uint8_t b)
{
    const Word mask = Word{0xff} << (8 * i);
    return (w & ~mask) | (Word{b} << (8 * i));
}

/** True when @p m has exactly one bit set. */
inline bool
isSingleLane(LaneMask m)
{
    return m != 0 && (m & (m - 1)) == 0;
}

/** Ceiling division for unsigned integers. */
constexpr std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/** True when @p v is a power of two (v > 0). */
constexpr bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/**
 * Number of most-significant bytes that are zero in an accumulated
 * lane difference (OR of per-lane XORs against the base): exactly the
 * byte-mask codec's common-prefix count, 4 for a scalar value.
 */
inline unsigned
commonMsbBytes(std::uint32_t diff)
{
    return static_cast<unsigned>(std::countl_zero(diff)) / 8;
}

/** log2 of a power of two. */
constexpr unsigned
log2Exact(std::uint64_t v)
{
    unsigned n = 0;
    while (v > 1) {
        v >>= 1;
        ++n;
    }
    return n;
}

} // namespace gs

#endif // GSCALAR_COMMON_BIT_UTILS_HPP
