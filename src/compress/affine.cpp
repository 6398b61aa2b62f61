#include "affine.hpp"

#include "common/bit_utils.hpp"
#include "common/log.hpp"

namespace gs
{

AffineInfo
analyzeAffine(std::span<const Word> values, LaneMask active)
{
    GS_ASSERT(active != 0, "affine analysis needs an active lane");

    const unsigned first = firstLane(active);
    GS_ASSERT(first < values.size(), "active mask exceeds lane count");

    AffineInfo info;
    const LaneMask rest = active & ~(LaneMask{1} << first);
    if (rest == 0) {
        info.affine = true;
        info.base = values[first]; // lone lane: stride unknowable, use 0
        return info;
    }

    const unsigned second = firstLane(rest);
    const Word diff = values[second] - values[first];
    const unsigned gap = second - first;
    // Stride must evenly explain the gap between the first two lanes.
    if (gap > 1 && diff % gap != 0)
        return info;
    const Word stride = gap > 1 ? diff / gap : diff;
    const Word base = values[first] - stride * first;

    // OR of every compared lane's XOR against the ramp: zero iff all
    // lanes lie on it.
    Word off_ramp = 0;
    const unsigned lanes = unsigned(values.size());
    const LaneMask all = laneMaskLow(lanes);
    if ((active & all) == all) {
        // Non-divergent write: no per-lane mask test.
        Word expect = base;
        for (unsigned lane = 0; lane < lanes; ++lane, expect += stride)
            off_ramp |= values[lane] ^ expect;
    } else {
        for (LaneMask m = active & all; m != 0; m &= m - 1) {
            const unsigned lane = firstLane(m);
            off_ramp |= values[lane] ^ (base + stride * lane);
        }
    }
    if (off_ramp != 0)
        return info;
    info.affine = true;
    info.base = base;
    info.stride = stride;
    return info;
}

} // namespace gs
