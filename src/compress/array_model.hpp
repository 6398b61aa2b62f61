/**
 * @file
 * SRAM-array activation model for register file accesses. The baseline
 * bank stores registers word-sliced (one array = four consecutive
 * lanes' words); the compression micro-architecture stores them
 * byte-sliced (one array = byte[i] of a 16-lane group), which is what
 * lets a compressed access activate fewer arrays (§3.2, Fig. 3).
 *
 * Every register read and write of the simulator prices itself through
 * several of these functions (the shadow accounting of Fig. 12), so
 * they are defined inline here.
 */

#ifndef GSCALAR_COMPRESS_ARRAY_MODEL_HPP
#define GSCALAR_COMPRESS_ARRAY_MODEL_HPP

#include <algorithm>

#include "common/bit_utils.hpp"
#include "common/types.hpp"
#include "reg_meta.hpp"

namespace gs
{

/** Register-file slice geometry derived from the warp size. */
struct RfGeometry
{
    unsigned warpSize = 32;
    unsigned granularity = 16; ///< lanes per check group / byte array

    unsigned groups() const { return warpSize / granularity; }
    /** Byte-sliced arrays covering one vector register (4 per group). */
    unsigned byteArrays() const { return kBytesPerWord * groups(); }
    /** Word-sliced baseline arrays (4 lanes each). */
    unsigned wordArrays() const { return warpSize / 4; }
    /** Bytes of a full uncompressed register. */
    unsigned regBytes() const { return warpSize * kBytesPerWord; }
};

/**
 * Cost of one register-file access: 128-bit SRAM array activations,
 * small BVR/EBR array accesses, and operand bytes moved through the
 * crossbar.
 */
struct AccessCost
{
    unsigned arrays = 0;
    unsigned bvr = 0;
    unsigned bytes = 0;
};

namespace detail
{

/** Number of @p lanes_per_array-lane groups of @p mask that are nonempty. */
inline unsigned
touchedGroups(LaneMask mask, unsigned lanes_per_array, unsigned total_lanes)
{
    unsigned n = 0;
    const LaneMask group = laneMaskLow(lanes_per_array);
    for (unsigned base = 0; base < total_lanes; base += lanes_per_array)
        if (mask & (group << base))
            ++n;
    return n;
}

/** A divergent write to raw storage: all four byte slices of every
 *  group the written lanes @p wmask touch. */
inline AccessCost
rawWriteCost(const RfGeometry &geo, LaneMask wmask, unsigned bvr)
{
    return {touchedGroups(wmask, geo.granularity, geo.warpSize) *
                kBytesPerWord,
            bvr, popCount(wmask) * kBytesPerWord};
}

/** Packed BDI layout: compressed bytes fill 16-byte arrays contiguously,
 *  plus one extra array activation on average from the misalignment of
 *  the diverse delta sizes (§3.2's interconnect complexity makes aligned
 *  slicing impractical for BDI). */
inline AccessCost
bdiPackedCost(const RfGeometry &geo, const RegMeta &meta)
{
    AccessCost c;
    c.bvr = 1; // BDI metadata (mode tag + per-register bookkeeping)
    c.arrays = unsigned(ceilDiv(meta.bdiBytes, 16));
    if (meta.bdiMode == BdiMode::BaseDelta1 ||
        meta.bdiMode == BdiMode::BaseDelta2) {
        ++c.arrays;
    }
    c.arrays = std::min(c.arrays, geo.byteArrays());
    c.bytes = meta.bdiBytes;
    return c;
}

} // namespace detail

// ---- baseline (word-sliced) ------------------------------------------------

/** Baseline full-register read: every array activates. */
inline AccessCost
baselineRead(const RfGeometry &geo)
{
    return {geo.wordArrays(), 0, geo.regBytes()};
}

/**
 * Baseline write: per-word write enables let the bank activate only the
 * arrays whose 4-lane groups contain written lanes (§3.3).
 */
inline AccessCost
baselineWrite(const RfGeometry &geo, LaneMask mask)
{
    AccessCost c;
    c.arrays = detail::touchedGroups(mask, 4, geo.warpSize);
    c.bytes = popCount(mask) * kBytesPerWord;
    return c;
}

// ---- byte-sliced + byte-mask compression -----------------------------------

/**
 * Read of a register stored by the compression micro-architecture.
 *
 * @param meta      stored metadata of the register
 * @param reader    active mask of the reading instruction (uncompressed
 *                  registers only activate groups it touches)
 * @param half_reg  per-group encodings in use (§3.2); otherwise the
 *                  full-warp encoding gates every group
 * @param scalar_from_bvr  the access is a scalar read served entirely
 *                  from the base-value register (§4.1): no data arrays
 */
inline AccessCost
compressedRead(const RfGeometry &geo, const RegMeta &meta, LaneMask reader,
               bool half_reg, bool scalar_from_bvr)
{
    const unsigned bvr = half_reg ? geo.groups() : 1;

    if (scalar_from_bvr) {
        // §4.1: the base value register effectively is a scalar
        // register; only the small array is touched.
        return {0, bvr, kBytesPerWord};
    }

    if (!meta.valid) {
        // Never written: architecturally undefined; model a full read.
        return {geo.byteArrays(), bvr, geo.regBytes()};
    }

    if (meta.divergent) {
        // Stored uncompressed: all four byte slices of every group the
        // reader touches.
        const unsigned g = detail::touchedGroups(reader, geo.granularity,
                                                 geo.warpSize);
        return {g * kBytesPerWord, bvr,
                g * geo.granularity * kBytesPerWord};
    }

    // Compressed: per group, only the arrays holding non-common bytes;
    // common bytes come from the BVR and never cross the crossbar.
    AccessCost c{0, bvr, 0};
    const LaneMask gmask = laneMaskLow(geo.granularity);
    for (unsigned g = 0; g < geo.groups(); ++g) {
        if (!(reader & (gmask << (g * geo.granularity))))
            continue;
        const unsigned enc = half_reg ? meta.groupEnc[g] : meta.fullEnc;
        c.arrays += kBytesPerWord - enc;
        c.bytes += (kBytesPerWord - enc) * geo.granularity;
    }
    return c;
}

/**
 * Write through the compression micro-architecture. @p meta is the
 * metadata computed from this write (analyzeWrite). Divergent writes
 * store uncompressed and must activate all byte slices of the touched
 * groups (§3.3). A full-warp scalar write with scalar execution only
 * touches the BVR.
 */
inline AccessCost
compressedWrite(const RfGeometry &geo, const RegMeta &meta, bool half_reg,
                bool scalar_to_bvr)
{
    const unsigned bvr = half_reg ? geo.groups() : 1;

    if (scalar_to_bvr) {
        // Scalar execution write-back: value goes to the BVR alone and
        // enc is set to 1111 (§4.1).
        return {0, bvr, kBytesPerWord};
    }

    if (meta.divergent) {
        // §3.3: partial updates go to decoded (uncompressed) storage;
        // every byte slice of a touched group activates, relying on the
        // per-byte write enables.
        return detail::rawWriteCost(geo, meta.writeMask, bvr);
    }

    AccessCost c{0, bvr, 0};
    for (unsigned g = 0; g < geo.groups(); ++g) {
        const unsigned enc = half_reg ? meta.groupEnc[g] : meta.fullEnc;
        c.arrays += kBytesPerWord - enc;
        c.bytes += (kBytesPerWord - enc) * geo.granularity;
    }
    return c;
}

// ---- BDI (Warped-Compression) -----------------------------------------------

/** Read of a BDI-stored register: arrays covering the packed bytes. */
inline AccessCost
bdiRead(const RfGeometry &geo, const RegMeta &meta, LaneMask reader)
{
    if (!meta.valid)
        return {geo.byteArrays(), 1, geo.regBytes()};
    if (meta.divergent) {
        // Warped-Compression also stores divergent writes raw.
        const unsigned g = detail::touchedGroups(reader, geo.granularity,
                                                 geo.warpSize);
        return {g * kBytesPerWord, 1, g * geo.granularity * kBytesPerWord};
    }
    return detail::bdiPackedCost(geo, meta);
}

/** Write of a BDI-stored register. */
inline AccessCost
bdiWrite(const RfGeometry &geo, const RegMeta &meta)
{
    if (meta.divergent)
        return detail::rawWriteCost(geo, meta.writeMask, 1);
    return detail::bdiPackedCost(geo, meta);
}

/** Stored bytes of a register under our codec (ratio accounting). */
inline unsigned
byteMaskRegStoredBytes(const RfGeometry &geo, const RegMeta &meta,
                       bool half_reg)
{
    if (!meta.valid || meta.divergent)
        return geo.regBytes();
    unsigned bytes = 0;
    for (unsigned g = 0; g < geo.groups(); ++g) {
        const unsigned enc = half_reg ? meta.groupEnc[g] : meta.fullEnc;
        bytes += enc + (kBytesPerWord - enc) * geo.granularity;
    }
    return bytes;
}

} // namespace gs

#endif // GSCALAR_COMPRESS_ARRAY_MODEL_HPP
