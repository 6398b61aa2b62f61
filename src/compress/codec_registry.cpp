/**
 * @file
 * Codec registry plus the two ported codecs: the paper's byte-mask
 * scheme and Warped-Compression's BDI. The related-work codecs
 * (static-profile, RRCD) live in their own translation units and hook
 * in through the factory functions of codec_impl.hpp.
 */

#include "codec_impl.hpp"

#include "bdi_codec.hpp"
#include "byte_mask_codec.hpp"
#include "common/bit_utils.hpp"
#include "common/log.hpp"

namespace gs
{
namespace compress
{

namespace detail
{

std::uint32_t
fnv1a32(const std::uint8_t *data, std::size_t n)
{
    std::uint32_t h = 0x811c9dc5u;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x01000193u;
    }
    return h;
}

std::vector<std::uint8_t>
packBlob(CodecId id, unsigned lanes, std::uint8_t enc,
         std::span<const std::uint8_t> payload)
{
    GS_ASSERT(lanes >= 1 && lanes <= kMaxWarpSize, "bad lane count");
    std::vector<std::uint8_t> out;
    out.reserve(kBlobHeaderBytes + payload.size());
    out.push_back(std::uint8_t(id));
    out.push_back(std::uint8_t(lanes));
    out.push_back(enc);
    const std::uint32_t sum = fnv1a32(payload.data(), payload.size());
    out.push_back(std::uint8_t(sum));
    out.push_back(std::uint8_t(sum >> 8));
    out.push_back(std::uint8_t(sum >> 16));
    out.push_back(std::uint8_t(sum >> 24));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

std::optional<BlobView>
unpackBlob(CodecId id, std::span<const std::uint8_t> blob,
           std::string *error)
{
    auto fail = [&](const std::string &why) -> std::optional<BlobView> {
        if (error)
            *error = why;
        return std::nullopt;
    };

    if (blob.size() < kBlobHeaderBytes)
        return fail("blob truncated: " + std::to_string(blob.size()) +
                    " byte(s), header needs " +
                    std::to_string(kBlobHeaderBytes));
    if (blob[0] != std::uint8_t(id))
        return fail(std::string("blob was produced by codec id ") +
                    std::to_string(blob[0]) + ", not " +
                    codecIdName(id));
    const unsigned lanes = blob[1];
    if (lanes < 1 || lanes > kMaxWarpSize)
        return fail("lane count " + std::to_string(lanes) +
                    " out of range [1, " + std::to_string(kMaxWarpSize) +
                    "]");

    BlobView v;
    v.lanes = lanes;
    v.enc = blob[2];
    v.payload = blob.subspan(kBlobHeaderBytes);
    const std::uint32_t want = std::uint32_t(blob[3]) |
                               (std::uint32_t(blob[4]) << 8) |
                               (std::uint32_t(blob[5]) << 16) |
                               (std::uint32_t(blob[6]) << 24);
    if (fnv1a32(v.payload.data(), v.payload.size()) != want)
        return fail("payload checksum mismatch: blob corrupted");
    return v;
}

std::optional<std::vector<Word>>
decodeFail(std::string *error, const std::string &why)
{
    if (error)
        *error = why;
    return std::nullopt;
}

} // namespace detail

// ----------------------------------------------------------- byte-mask

CodecCaps
ByteMaskCodec::caps() const
{
    CodecCaps c;
    c.fullScalar = true;
    c.halfScalar = true;
    c.divergentScalar = true;
    c.scalarFromMeta = true;
    c.insertsSpecialMoves = true;
    c.absorbsStuckFaults = false;
    c.extraFrontCycles = 2;
    return c;
}

bool
ByteMaskCodec::regScalar(const RegMeta &meta) const
{
    return meta.fullScalar();
}

bool
ByteMaskCodec::regCompressed(const RegMeta &meta) const
{
    return meta.valid && !meta.divergent && meta.fullEnc > 0;
}

AccessCost
ByteMaskCodec::readCost(const RfGeometry &geo, const RegMeta &meta,
                        LaneMask reader, bool half_reg,
                        bool scalar_from_meta) const
{
    return compressedRead(geo, meta, reader, half_reg, scalar_from_meta);
}

AccessCost
ByteMaskCodec::writeCost(const RfGeometry &geo, const RegMeta &meta,
                         bool half_reg, bool scalar_to_meta) const
{
    return compressedWrite(geo, meta, half_reg, scalar_to_meta);
}

unsigned
ByteMaskCodec::regStoredBytes(const RfGeometry &geo, const RegMeta &meta,
                              bool half_reg) const
{
    return byteMaskRegStoredBytes(geo, meta, half_reg);
}

unsigned
ByteMaskCodec::metadataBitsPerReg(const RfGeometry &geo,
                                  bool half_reg) const
{
    // enc[3:0] + a 32-bit base per encoding granule, plus D and FS.
    const unsigned granules = half_reg ? geo.groups() : 1;
    return granules * (4 + 32) + 2;
}

std::vector<std::uint8_t>
ByteMaskCodec::encode(std::span<const Word> values) const
{
    const ByteMaskEncoding e =
        analyzeByteMask(values, laneMaskLow(unsigned(values.size())));
    return detail::packBlob(id(), unsigned(values.size()),
                            std::uint8_t(e.commonMsbs),
                            byteMaskCompress(values));
}

std::optional<std::vector<Word>>
ByteMaskCodec::decode(std::span<const std::uint8_t> blob,
                      std::string *error) const
{
    const auto v = detail::unpackBlob(id(), blob, error);
    if (!v)
        return std::nullopt;
    if (v->enc > kBytesPerWord)
        return detail::decodeFail(error, "encoding byte " +
                                             std::to_string(v->enc) +
                                             " exceeds the word size");
    const unsigned want = byteMaskStoredBytes(v->enc, v->lanes);
    if (v->payload.size() != want)
        return detail::decodeFail(
            error, "payload is " + std::to_string(v->payload.size()) +
                       " byte(s), encoding implies " +
                       std::to_string(want));
    return byteMaskDecompress(v->payload, v->enc, v->lanes);
}

// ----------------------------------------------------------------- BDI

namespace
{

/** Warped-Compression's base-delta-immediate behind the interface. */
class BdiCodec : public Codec
{
  public:
    CodecId id() const override { return CodecId::Bdi; }

    CodecCaps
    caps() const override
    {
        CodecCaps c;
        // A Zero/Scalar-mode register is detectably uniform, so the
        // full-warp tier works; there is no per-group metadata and no
        // stored write mask, so the finer tiers do not.
        c.fullScalar = true;
        c.halfScalar = false;
        c.divergentScalar = false;
        c.scalarFromMeta = true;
        // W-C decompresses the whole register on partial writes and
        // re-compresses at write-back instead of inserting a move.
        c.insertsSpecialMoves = false;
        c.absorbsStuckFaults = false;
        c.extraFrontCycles = 2;
        return c;
    }

    CodecEnergyScale
    energyScale() const override
    {
        // Subtractor banks + the diverse-size packing network switch
        // more than byte comparators; the W-C interconnect roughly
        // doubles the codec's leakage share (bdiStaticPerSmW /
        // codecStaticPerSmW = 2.25).
        return {1.40, 1.20, 1.0, 2.25};
    }

    CodecAreaScale
    areaScale() const override
    {
        // Table 3: our compressor is ~52 % of the BDI compressor.
        return {1.92, 1.15, 1.0};
    }

    bool
    regScalar(const RegMeta &meta) const override
    {
        return meta.valid && !meta.divergent &&
               (meta.bdiMode == BdiMode::Zero ||
                meta.bdiMode == BdiMode::Scalar);
    }

    bool
    regCompressed(const RegMeta &meta) const override
    {
        return meta.valid && !meta.divergent &&
               meta.bdiMode != BdiMode::Uncompressed;
    }

    AccessCost
    readCost(const RfGeometry &geo, const RegMeta &meta, LaneMask reader,
             bool half_reg, bool scalar_from_meta) const override
    {
        (void)half_reg; // no per-group encodings
        if (scalar_from_meta)
            return {0, 1, kBytesPerWord};
        return bdiRead(geo, meta, reader);
    }

    AccessCost
    writeCost(const RfGeometry &geo, const RegMeta &meta, bool half_reg,
              bool scalar_to_meta) const override
    {
        (void)half_reg;
        if (scalar_to_meta)
            return {0, 1, kBytesPerWord};
        return bdiWrite(geo, meta);
    }

    unsigned
    regStoredBytes(const RfGeometry &geo, const RegMeta &meta,
                   bool half_reg) const override
    {
        (void)half_reg;
        if (!meta.valid || meta.divergent)
            return geo.regBytes();
        return meta.bdiBytes;
    }

    unsigned
    metadataBitsPerReg(const RfGeometry &geo, bool half_reg) const override
    {
        (void)geo;
        (void)half_reg;
        // 3-bit mode tag + the 32-bit base.
        return 3 + 32;
    }

    std::vector<std::uint8_t>
    encode(std::span<const Word> values) const override
    {
        const unsigned lanes = unsigned(values.size());
        const BdiEncoding e =
            analyzeBdi(values, laneMaskLow(lanes));

        std::vector<std::uint8_t> payload;
        payload.reserve(e.storedBytes);
        auto push_base = [&] {
            for (unsigned i = 0; i < kBytesPerWord; ++i)
                payload.push_back(byteOf(e.base, 3 - i));
        };
        switch (e.mode) {
          case BdiMode::Zero:
            break;
          case BdiMode::Scalar:
            push_base();
            break;
          case BdiMode::BaseDelta1:
            push_base();
            for (const Word v : values)
                payload.push_back(std::uint8_t(v - e.base));
            break;
          case BdiMode::BaseDelta2:
            push_base();
            for (const Word v : values) {
                const std::uint16_t d = std::uint16_t(v - e.base);
                payload.push_back(std::uint8_t(d >> 8));
                payload.push_back(std::uint8_t(d));
            }
            break;
          case BdiMode::Uncompressed:
            for (const Word v : values)
                for (unsigned i = 0; i < kBytesPerWord; ++i)
                    payload.push_back(byteOf(v, 3 - i));
            break;
        }
        return detail::packBlob(id(), lanes, std::uint8_t(e.mode),
                                payload);
    }

    std::optional<std::vector<Word>>
    decode(std::span<const std::uint8_t> blob,
           std::string *error) const override
    {
        const auto v = detail::unpackBlob(id(), blob, error);
        if (!v)
            return std::nullopt;
        if (v->enc > std::uint8_t(BdiMode::Uncompressed))
            return detail::decodeFail(error,
                                      "unknown BDI mode " +
                                          std::to_string(v->enc));
        const BdiMode mode = BdiMode(v->enc);
        const unsigned want = bdiStoredBytes(mode, v->lanes);
        if (v->payload.size() != want)
            return detail::decodeFail(
                error, "payload is " +
                           std::to_string(v->payload.size()) +
                           " byte(s), mode implies " +
                           std::to_string(want));

        const std::uint8_t *p = v->payload.data();
        auto read_base = [&] {
            Word base = 0;
            for (unsigned i = 0; i < kBytesPerWord; ++i)
                base = withByte(base, 3 - i, *p++);
            return base;
        };
        std::vector<Word> out(v->lanes, 0);
        switch (mode) {
          case BdiMode::Zero:
            break;
          case BdiMode::Scalar: {
            const Word base = read_base();
            for (Word &w : out)
                w = base;
            break;
          }
          case BdiMode::BaseDelta1: {
            const Word base = read_base();
            for (Word &w : out)
                w = base + Word(std::int32_t(std::int8_t(*p++)));
            break;
          }
          case BdiMode::BaseDelta2: {
            const Word base = read_base();
            for (Word &w : out) {
                const std::uint16_t d =
                    std::uint16_t((std::uint16_t(p[0]) << 8) | p[1]);
                p += 2;
                w = base + Word(std::int32_t(std::int16_t(d)));
            }
            break;
          }
          case BdiMode::Uncompressed:
            for (Word &w : out)
                for (unsigned i = 0; i < kBytesPerWord; ++i)
                    w = withByte(w, 3 - i, *p++);
            break;
        }
        return out;
    }
};

} // namespace

// ------------------------------------------------------------ registry

const Codec &
codecFor(CodecId id)
{
    static const ByteMaskCodec byte_mask;
    static const BdiCodec bdi;
    switch (id) {
      case CodecId::ByteMask: return byte_mask;
      case CodecId::Bdi: return bdi;
      case CodecId::StaticProfile: return staticProfileCodec();
      case CodecId::Rrcd: return rrcdCodec();
    }
    GS_FATAL("codec id ", unsigned(id), " is not registered");
}

const Codec *
findCodec(std::string_view name)
{
    const std::optional<CodecId> id = parseCodecId(name);
    return id ? &codecFor(*id) : nullptr;
}

const std::vector<const Codec *> &
allCodecs()
{
    static const std::vector<const Codec *> all = [] {
        std::vector<const Codec *> v;
        for (unsigned i = 0; i < kNumCodecs; ++i)
            v.push_back(&codecFor(CodecId(i)));
        return v;
    }();
    return all;
}

} // namespace compress
} // namespace gs
