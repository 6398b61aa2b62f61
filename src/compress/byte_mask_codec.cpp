#include "byte_mask_codec.hpp"

#include "common/bit_utils.hpp"
#include "common/log.hpp"

namespace gs
{

unsigned
encBitsFor(unsigned common_msbs)
{
    GS_ASSERT(common_msbs <= 4, "bad prefix count ", common_msbs);
    // 0 -> 0000, 1 -> 1000, 2 -> 1100, 3 -> 1110, 4 -> 1111.
    return (0xfu << (4 - common_msbs)) & 0xfu;
}

unsigned
ByteMaskEncoding::encBits() const
{
    return encBitsFor(commonMsbs);
}

ByteMaskEncoding
analyzeByteMask(std::span<const Word> values, LaneMask active)
{
    GS_ASSERT(active != 0, "byte-mask comparison needs an active lane");
    GS_ASSERT(!values.empty(), "empty value span");

    const unsigned base_lane = firstLane(active);
    GS_ASSERT(base_lane < values.size(), "active mask exceeds lane count");
    const Word base = values[base_lane];

    // Hardware compares neighbours with inactive lanes overridden by a
    // broadcast of an active lane's value (Fig. 7 (a)). Comparing every
    // active lane against the first active lane is equivalent, and the
    // common-MSB count across lanes equals the leading-zero-byte count
    // of the OR of all per-lane XORs against the base. The sweep has
    // no early exit: that keeps the loop branch-free, and ORing more
    // lanes cannot change a count that is already 0.
    std::uint32_t diff = 0;
    const unsigned lanes = unsigned(values.size());
    const LaneMask all = laneMaskLow(lanes);
    if ((active & all) == all) {
        // Non-divergent write: no per-lane mask test.
        for (const Word v : values)
            diff |= v ^ base;
    } else {
        for (LaneMask m = active & all; m != 0; m &= m - 1)
            diff |= values[firstLane(m)] ^ base;
    }

    ByteMaskEncoding e;
    e.commonMsbs = commonMsbBytes(diff);
    e.base = base;
    return e;
}

unsigned
byteMaskStoredBytes(unsigned common_msbs, unsigned lanes)
{
    GS_ASSERT(common_msbs <= 4, "bad prefix count");
    return common_msbs + (4 - common_msbs) * lanes;
}

std::vector<std::uint8_t>
byteMaskCompress(std::span<const Word> values)
{
    const auto enc =
        analyzeByteMask(values, laneMaskLow(unsigned(values.size())));

    std::vector<std::uint8_t> out;
    out.reserve(byteMaskStoredBytes(enc.commonMsbs, unsigned(values.size())));

    // Base bytes, most significant first (the BVR contents).
    for (unsigned i = 0; i < enc.commonMsbs; ++i)
        out.push_back(byteOf(enc.base, 3 - i));

    // Per-lane differing low bytes, lane-major, most significant first.
    for (const Word v : values)
        for (unsigned b = enc.commonMsbs; b < 4; ++b)
            out.push_back(byteOf(v, 3 - b));

    return out;
}

std::vector<Word>
byteMaskDecompress(std::span<const std::uint8_t> stored,
                   unsigned common_msbs, unsigned lanes)
{
    GS_ASSERT(stored.size() == byteMaskStoredBytes(common_msbs, lanes),
              "stored stream size mismatch");

    Word base_part = 0;
    for (unsigned i = 0; i < common_msbs; ++i)
        base_part = withByte(base_part, 3 - i, stored[i]);

    std::vector<Word> out(lanes, base_part);
    std::size_t pos = common_msbs;
    for (unsigned lane = 0; lane < lanes; ++lane)
        for (unsigned b = common_msbs; b < 4; ++b)
            out[lane] = withByte(out[lane], 3 - b, stored[pos++]);

    return out;
}

} // namespace gs
