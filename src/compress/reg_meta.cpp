#include "reg_meta.hpp"

#include "affine.hpp"
#include "byte_mask_codec.hpp"
#include "common/bit_utils.hpp"
#include "common/log.hpp"

namespace gs
{

RegMeta
analyzeWrite(std::span<const Word> values, LaneMask mask,
             LaneMask full_mask, unsigned granularity)
{
    GS_ASSERT(mask != 0, "write with empty mask");
    GS_ASSERT((mask & ~full_mask) == 0, "write mask outside warp");
    GS_ASSERT(granularity > 0 && values.size() % granularity == 0,
              "granularity must divide warp size");

    RegMeta m;
    m.valid = true;
    m.divergent = (mask != full_mask);
    m.writeMask = mask;

    // Full-warp comparison over the written lanes (broadcast over
    // inactive lanes, Fig. 7 (a)).
    const ByteMaskEncoding full = analyzeByteMask(values, mask);
    m.fullEnc = static_cast<std::uint8_t>(full.commonMsbs);
    m.fullBase = full.base;

    const unsigned lanes = unsigned(values.size());
    const unsigned groups = lanes / granularity;
    GS_ASSERT(groups <= kMaxGroups, "too many check groups");

    // A scalar write (every written lane equals fullBase) is a zero or
    // scalar BDI register and a stride-0 ramp: exactly what the two
    // shadow passes would find, so they only run for other writes.
    const bool scalar = m.fullEnc == 4;
    if (scalar) {
        m.bdiMode = m.fullBase == 0 ? BdiMode::Zero : BdiMode::Scalar;
        m.bdiBytes = static_cast<std::uint16_t>(
            bdiStoredBytes(m.bdiMode, lanes));
        m.affine = true;
        m.affineStride = 0;
    } else {
        // Shadow BDI over the same lanes for the Fig. 12 comparison.
        const BdiEncoding bdi = analyzeBdi(values, mask);
        m.bdiMode = bdi.mode;
        m.bdiBytes = static_cast<std::uint16_t>(bdi.storedBytes);

        // Shadow affine classification (related-work opportunity, §6).
        const AffineInfo aff = analyzeAffine(values, mask);
        m.affine = aff.affine;
        m.affineStride = aff.stride;
    }

    // Per-group comparison, only meaningful for non-divergent writes
    // (half-warp scalar execution is restricted to them, §4.3).
    if (m.divergent)
        return m;
    if (scalar && mask == laneMaskLow(lanes)) {
        // Every lane of every group was written with one value, so each
        // group is scalar too. A partial warp's groups also compare its
        // unpopulated lanes, so it takes the group passes.
        for (unsigned g = 0; g < groups; ++g) {
            m.groupEnc[g] = 4;
            m.groupBase[g] = values[g * granularity];
        }
        return m;
    }
    const LaneMask group_mask = laneMaskLow(granularity);
    for (unsigned g = 0; g < groups; ++g) {
        const auto sub = values.subspan(g * granularity, granularity);
        const ByteMaskEncoding e = analyzeByteMask(sub, group_mask);
        m.groupEnc[g] = static_cast<std::uint8_t>(e.commonMsbs);
        m.groupBase[g] = e.base;
    }
    return m;
}

} // namespace gs
