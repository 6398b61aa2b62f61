#include <gtest/gtest.h>

#include <vector>

#include "common/bit_utils.hpp"
#include "common/rng.hpp"
#include "compress/byte_mask_codec.hpp"

namespace gs
{
namespace
{

std::vector<Word>
lanes(std::initializer_list<Word> v)
{
    return {v};
}

TEST(ByteMaskCodec, PaperWorkedExample)
{
    // Section 3.1: C04039C0, C04039C8, ..., C04039F8 share their three
    // most significant bytes; enc = 1110.
    std::vector<Word> v;
    for (Word b = 0xC0; b <= 0xF8; b += 8)
        v.push_back(0xC0403900u | b);
    ASSERT_EQ(v.size(), 8u);

    const auto e = analyzeByteMask(v, laneMaskLow(8));
    EXPECT_EQ(e.commonMsbs, 3u);
    EXPECT_EQ(e.base, 0xC04039C0u);
    EXPECT_EQ(e.encBits(), 0b1110u);
    EXPECT_FALSE(e.isScalar());
}

TEST(ByteMaskCodec, ScalarValue)
{
    const std::vector<Word> v(32, 0xdeadbeef);
    const auto e = analyzeByteMask(v, laneMaskLow(32));
    EXPECT_EQ(e.commonMsbs, 4u);
    EXPECT_EQ(e.encBits(), 0b1111u);
    EXPECT_TRUE(e.isScalar());
}

TEST(ByteMaskCodec, NoCommonBytes)
{
    const auto e = analyzeByteMask(lanes({0x11000000, 0x22000000}),
                                   laneMaskLow(2));
    EXPECT_EQ(e.commonMsbs, 0u);
    EXPECT_EQ(e.encBits(), 0b0000u);
}

TEST(ByteMaskCodec, PrefixOnlyNotMiddleBytes)
{
    // byte[3] and byte[1] match but byte[2] differs: the encoding is a
    // prefix, so only byte[3] counts.
    const auto e = analyzeByteMask(lanes({0xAA11BB00, 0xAA22BB00}),
                                   laneMaskLow(2));
    EXPECT_EQ(e.commonMsbs, 1u);
    EXPECT_EQ(e.encBits(), 0b1000u);
}

TEST(ByteMaskCodec, SimilarValuesWithDifferentHex)
{
    // The paper notes BDI can beat byte-masking when nearby values
    // differ widely in hex: 0x3FFFFFFF vs 0x40000000 share nothing.
    const auto e = analyzeByteMask(lanes({0x3FFFFFFF, 0x40000000}),
                                   laneMaskLow(2));
    EXPECT_EQ(e.commonMsbs, 0u);
}

TEST(ByteMaskCodec, InactiveLanesIgnored)
{
    // AAABABC-style case from Fig. 6: with mask 10101100 only the A
    // lanes are compared.
    const Word A = 0x01020304, B = 0x99999999, C = 0x55555555;
    const std::vector<Word> v = {A, A, A, B, A, B, C, 0};
    // Active lanes: 2, 3 set? Mask bits: lane0..7 = 0,2,3,5 -> choose
    // lanes holding A only: lanes 0, 1, 2, 4.
    const LaneMask m = 0b00010111;
    const auto e = analyzeByteMask(v, m);
    EXPECT_EQ(e.commonMsbs, 4u);
    EXPECT_EQ(e.base, A);
}

TEST(ByteMaskCodec, MixedActiveLanesNotScalar)
{
    const std::vector<Word> v = {1, 1, 2, 1};
    EXPECT_EQ(analyzeByteMask(v, 0b1111).commonMsbs, 3u);
    EXPECT_EQ(analyzeByteMask(v, 0b1011).commonMsbs, 4u);
}

TEST(ByteMaskCodec, StoredBytes)
{
    EXPECT_EQ(byteMaskStoredBytes(4, 32), 4u);
    EXPECT_EQ(byteMaskStoredBytes(3, 32), 3u + 32u);
    EXPECT_EQ(byteMaskStoredBytes(0, 32), 128u);
    EXPECT_EQ(byteMaskStoredBytes(2, 16), 2u + 2u * 16u);
}

TEST(ByteMaskCodec, CompressDecompressRoundtripExample)
{
    std::vector<Word> v;
    for (Word b = 0; b < 16; ++b)
        v.push_back(0xC0403900u + b * 8);
    const auto stored = byteMaskCompress(v);
    EXPECT_EQ(stored.size(), byteMaskStoredBytes(3, 16));
    const auto out = byteMaskDecompress(stored, 3, 16);
    EXPECT_EQ(out, v);
}

/** Property sweep: roundtrip over every prefix class and lane count. */
class ByteMaskRoundtrip
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(ByteMaskRoundtrip, Roundtrips)
{
    const unsigned prefix = std::get<0>(GetParam());
    const unsigned lanes_n = std::get<1>(GetParam());
    Rng rng(prefix * 131 + lanes_n);

    std::vector<Word> v(lanes_n);
    const Word base = rng.next32();
    for (auto &w : v) {
        w = base;
        // Randomise the low (4 - prefix) bytes; force at least one
        // difference right below the prefix so the class is exact.
        for (unsigned b = 0; b + prefix < 4; ++b)
            w = withByte(w, 3 - prefix - b, std::uint8_t(rng.next32()));
    }
    if (prefix < 4) {
        v[1] = withByte(v[1], 3 - prefix,
                        std::uint8_t(byteOf(v[0], 3 - prefix) + 1));
    }

    const auto enc = analyzeByteMask(v, laneMaskLow(lanes_n));
    ASSERT_LE(enc.commonMsbs, 4u);
    ASSERT_GE(enc.commonMsbs, prefix == 4 ? 4u : 0u);

    const auto stored = byteMaskCompress(v);
    const auto out = byteMaskDecompress(stored, enc.commonMsbs, lanes_n);
    EXPECT_EQ(out, v);
    EXPECT_EQ(stored.size(), byteMaskStoredBytes(enc.commonMsbs, lanes_n));
}

INSTANTIATE_TEST_SUITE_P(
    AllPrefixesAndWidths, ByteMaskRoundtrip,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 3u, 4u),
                       ::testing::Values(2u, 8u, 16u, 32u, 64u)));

// ------------------------------------------------- byte-by-byte oracle
// analyzeByteMask ORs per-lane XORs against the base and counts leading
// zero bytes. These tests hold it to the definition instead: the
// number of leading byte positions (most significant first) on which
// every active lane equals the base, i.e. first active, lane.

unsigned
oracleCommonMsbs(const std::vector<Word> &v, LaneMask active)
{
    const Word base = v[firstLane(active)];
    for (unsigned n = 0; n < 4; ++n) {
        const unsigned byte = 3 - n;
        for (unsigned lane = 0; lane < v.size(); ++lane)
            if (((active >> lane) & 1) &&
                byteOf(v[lane], byte) != byteOf(base, byte))
                return n;
    }
    return 4;
}

/** Base bytes once, then each lane's differing low bytes, MSB first. */
std::vector<std::uint8_t>
oraclePack(const std::vector<Word> &v)
{
    const unsigned common =
        oracleCommonMsbs(v, laneMaskLow(unsigned(v.size())));
    std::vector<std::uint8_t> out;
    for (unsigned n = 0; n < common; ++n)
        out.push_back(byteOf(v[0], 3 - n));
    for (const Word w : v)
        for (unsigned n = common; n < 4; ++n)
            out.push_back(byteOf(w, 3 - n));
    return out;
}

enum class Family { Constant, Ramp, OneLaneOff, Random };
enum class MaskKind { Full, Random, SingleLane, Sparse };

constexpr Family kFamilies[] = {Family::Constant, Family::Ramp,
                                Family::OneLaneOff, Family::Random};
constexpr MaskKind kMaskKinds[] = {MaskKind::Full, MaskKind::Random,
                                   MaskKind::SingleLane, MaskKind::Sparse};

std::vector<Word>
familyValues(Family f, unsigned n, Rng &rng)
{
    std::vector<Word> v(n, 0xC04039C0u);
    switch (f) {
      case Family::Constant: break;
      case Family::Ramp:
        for (unsigned i = 0; i < n; ++i)
            v[i] += i * 8;
        break;
      case Family::OneLaneOff:
        v[rng.next32() % n] ^= 0x01u << (8 * (rng.next32() % 4));
        break;
      case Family::Random:
        for (Word &w : v)
            w = rng.next32();
        break;
    }
    return v;
}

LaneMask
maskOf(MaskKind k, unsigned n, Rng &rng)
{
    const LaneMask one = LaneMask{1} << (rng.next32() % n);
    switch (k) {
      case MaskKind::Full: return laneMaskLow(n);
      case MaskKind::Random: return (rng.next64() & laneMaskLow(n)) | one;
      case MaskKind::SingleLane: return one;
      case MaskKind::Sparse:
        return one | (LaneMask{1} << (rng.next32() % n)) |
               (LaneMask{1} << (rng.next32() % n));
    }
    return one;
}

TEST(ByteMaskOracle, AnalyzeMatchesByteByByteDefinition)
{
    Rng rng(7);
    for (unsigned n = 1; n <= kMaxWarpSize; ++n)
        for (const Family f : kFamilies)
            for (const MaskKind k : kMaskKinds)
                for (unsigned trial = 0; trial < 4; ++trial) {
                    const std::vector<Word> v = familyValues(f, n, rng);
                    const LaneMask active = maskOf(k, n, rng);
                    const ByteMaskEncoding e = analyzeByteMask(v, active);
                    EXPECT_EQ(e.commonMsbs, oracleCommonMsbs(v, active))
                        << "width " << n << " family " << int(f)
                        << " mask " << std::hex << active;
                    EXPECT_EQ(e.base, v[firstLane(active)]);
                }
}

TEST(ByteMaskOracle, OneLaneOffAtEveryPosition)
{
    // One lane differs in one byte: a full write loses the common
    // bytes from that one down; a write that masks the lane off is
    // scalar. Every position, so the first and last lanes count too.
    for (unsigned n = 1; n <= kMaxWarpSize; ++n)
        for (unsigned off = 0; off < n; ++off)
            for (unsigned byte = 0; byte < 4; ++byte) {
                std::vector<Word> v(n, 0x5A3C9617u);
                v[off] ^= 0x80u << (8 * byte);
                EXPECT_EQ(analyzeByteMask(v, laneMaskLow(n)).commonMsbs,
                          n == 1 ? 4u : 3 - byte)
                    << "width " << n << " lane " << off;
                const LaneMask others =
                    laneMaskLow(n) & ~(LaneMask{1} << off);
                if (others != 0) {
                    EXPECT_EQ(analyzeByteMask(v, others).commonMsbs, 4u)
                        << "width " << n << " masked-off lane " << off;
                }
            }
}

TEST(ByteMaskOracle, CompressMatchesPerLanePacker)
{
    Rng rng(11);
    for (unsigned n = 1; n <= kMaxWarpSize; ++n)
        for (const Family f : kFamilies)
            for (unsigned trial = 0; trial < 3; ++trial) {
                const std::vector<Word> v = familyValues(f, n, rng);
                const std::vector<std::uint8_t> stored =
                    byteMaskCompress(v);
                EXPECT_EQ(stored, oraclePack(v))
                    << "width " << n << " family " << int(f);
                const unsigned common =
                    oracleCommonMsbs(v, laneMaskLow(n));
                ASSERT_EQ(stored.size(), byteMaskStoredBytes(common, n));
                EXPECT_EQ(byteMaskDecompress(stored, common, n), v);
            }
}

} // namespace
} // namespace gs
