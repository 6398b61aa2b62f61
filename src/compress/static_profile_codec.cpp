/**
 * @file
 * Static profile-guided register compression, after Angerd, Sintorn
 * and Stenström (arxiv 2006.05693). The original proposal profiles a
 * workload offline and compiles a fixed per-register encoding table
 * into the binary, removing every dynamic comparator from the write
 * path: hardware only checks whether a written value still fits the
 * profiled encoding and escapes to raw storage when it does not.
 *
 * The reproduction models that deterministically online: the first
 * non-divergent write of a register freezes its encoding
 * (RegMeta::profileEnc, carried forward by updateMeta()) — exactly the
 * value an oracle-free profile run over the same seeded input would
 * produce. Later writes fit while their dynamic common-MSB count is at
 * least the frozen one (stored at the profiled width); otherwise the
 * register escapes to uncompressed storage. Encoding is per register,
 * never per check group, so the half-register tier is unavailable;
 * the payoff is one fewer pipeline stage (no dynamic EBR lookup) and
 * a compressor that is mostly wires.
 */

#include "byte_mask_codec.hpp"
#include "codec_impl.hpp"

namespace gs
{
namespace compress
{

namespace
{

/**
 * Effective stored encoding of a register under the frozen profile:
 * the profiled width when the value still fits, raw (0) when it
 * escaped, the dynamic width before any profile exists.
 */
unsigned
profiledEnc(const RegMeta &meta)
{
    if (meta.profileEnc == 0xFF)
        return meta.fullEnc;
    return meta.fullEnc >= meta.profileEnc ? meta.profileEnc : 0;
}

/** Meta as the storage sees it: full-register, profile-clamped. */
RegMeta
profiledMeta(const RegMeta &meta)
{
    RegMeta m = meta;
    m.fullEnc = std::uint8_t(profiledEnc(meta));
    return m;
}

class StaticProfileCodec : public ByteMaskCodec
{
  public:
    CodecId id() const override { return CodecId::StaticProfile; }

    CodecCaps
    caps() const override
    {
        CodecCaps c = ByteMaskCodec::caps();
        c.halfScalar = false;      // one encoding per register
        c.divergentScalar = false; // no dynamic write-mask metadata
        // No dynamic encoding lookup in front of the operand
        // collectors: one pipeline stage instead of two.
        c.extraFrontCycles = 1;
        return c;
    }

    CodecEnergyScale
    energyScale() const override
    {
        // The write path shrinks to a fits-the-profile check; the
        // static EBR halves the metadata array's switching and the
        // codec's leakage share.
        return {0.15, 1.0, 0.5, 0.5};
    }

    CodecAreaScale
    areaScale() const override
    {
        return {0.20, 1.0, 0.6};
    }

    bool
    regScalar(const RegMeta &meta) const override
    {
        return meta.valid && !meta.divergent && profiledEnc(meta) == 4;
    }

    bool
    regCompressed(const RegMeta &meta) const override
    {
        return meta.valid && !meta.divergent && profiledEnc(meta) > 0;
    }

    void
    updateMeta(const RegMeta &before, RegMeta &after) const override
    {
        if (before.profileEnc != 0xFF)
            after.profileEnc = before.profileEnc; // profile is frozen
        else if (after.valid && !after.divergent)
            after.profileEnc = after.fullEnc; // first profiled write
    }

    AccessCost
    readCost(const RfGeometry &geo, const RegMeta &meta, LaneMask reader,
             bool half_reg, bool scalar_from_meta) const override
    {
        (void)half_reg;
        return ByteMaskCodec::readCost(geo, profiledMeta(meta), reader,
                                       false, scalar_from_meta);
    }

    AccessCost
    writeCost(const RfGeometry &geo, const RegMeta &meta, bool half_reg,
              bool scalar_to_meta) const override
    {
        (void)half_reg;
        return ByteMaskCodec::writeCost(geo, profiledMeta(meta), false,
                                        scalar_to_meta);
    }

    unsigned
    regStoredBytes(const RfGeometry &geo, const RegMeta &meta,
                   bool half_reg) const override
    {
        (void)half_reg;
        return ByteMaskCodec::regStoredBytes(geo, profiledMeta(meta),
                                             false);
    }

    unsigned
    metadataBitsPerReg(const RfGeometry &geo, bool half_reg) const override
    {
        (void)geo;
        (void)half_reg;
        // The encoding lives in the compiled profile table; the RF
        // keeps one base plus the D/FS flags.
        return 32 + 2;
    }

    // encode()/decode() inherit the byte-mask stored format: the
    // blob's enc byte is the profile-table entry feeding the fixed
    // encoder, so a profile round-trips through the same payload.
};

} // namespace

const Codec &
staticProfileCodec()
{
    static const StaticProfileCodec codec;
    return codec;
}

} // namespace compress
} // namespace gs
