#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bit_utils.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "compress/byte_mask_codec.hpp"
#include "compress/simd.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"

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

// ------------------------------------------- cpu dispatch (compress/simd.hpp)
// Every GS_SIMD level must give bit-identical codec results; csvRow
// covers every event counter and power component, so the end-to-end
// check is bit-level determinism of a whole simulation.

/** Restore the auto-detected SIMD level on scope exit. */
struct SimdLevelAtExit
{
    ~SimdLevelAtExit() { clearSimdLevelOverride(); }
};

TEST(SimdDispatch, ParseAcceptsKnownLevels)
{
    EXPECT_EQ(parseSimdLevel("off"), SimdLevel::Off);
    EXPECT_EQ(parseSimdLevel("swar"), SimdLevel::Swar);
    EXPECT_EQ(parseSimdLevel("avx2"), SimdLevel::Avx2);
}

TEST(SimdDispatch, ParseRejectsUnknownNames)
{
    for (const char *bad : {"", "OFF", "sse", "avx512", "auto", " off"})
        EXPECT_FALSE(parseSimdLevel(bad).has_value())
            << "'" << bad << "' should be rejected";
}

TEST(SimdDispatch, NamesRoundTrip)
{
    for (const SimdLevel l :
         {SimdLevel::Off, SimdLevel::Swar, SimdLevel::Avx2})
        EXPECT_EQ(parseSimdLevel(simdLevelName(l)), l);
}

TEST(SimdDispatch, BaselineLevelsAlwaysSupported)
{
    EXPECT_TRUE(simdLevelSupported(SimdLevel::Off));
    EXPECT_TRUE(simdLevelSupported(SimdLevel::Swar));
}

// ------------------------------------------------------- codec equivalence

std::vector<SimdLevel>
supportedLevels()
{
    std::vector<SimdLevel> out;
    for (const SimdLevel l :
         {SimdLevel::Off, SimdLevel::Swar, SimdLevel::Avx2})
        if (simdLevelSupported(l))
            out.push_back(l);
    return out;
}

TEST(SimdDispatch, AllLevelsAgreeOnAnalyze)
{
    SimdLevelAtExit restore;
    Rng rng(7);
    for (unsigned trial = 0; trial < 400; ++trial) {
        const unsigned lanes = 1 + rng.next32() % 64;
        std::vector<Word> values(lanes);
        const unsigned family = rng.next32() % 4;
        for (unsigned i = 0; i < lanes; ++i) {
            switch (family) {
              case 0: values[i] = 0xC04039C0; break;
              case 1: values[i] = 0xC04039C0 + i * 8; break;
              case 2: values[i] = 0xC0400000 + i * 1024; break;
              default: values[i] = rng.next32(); break;
            }
        }
        LaneMask active = rng.next64() & laneMaskLow(lanes);
        if (active == 0)
            active = 1;

        setSimdLevel(SimdLevel::Off);
        const ByteMaskEncoding ref = analyzeByteMask(values, active);
        for (const SimdLevel l : supportedLevels()) {
            setSimdLevel(l);
            const ByteMaskEncoding got = analyzeByteMask(values, active);
            EXPECT_EQ(ref.commonMsbs, got.commonMsbs)
                << "trial " << trial << " level " << simdLevelName(l);
            EXPECT_EQ(ref.base, got.base)
                << "trial " << trial << " level " << simdLevelName(l);
        }
    }
}

TEST(SimdDispatch, AllLevelsAgreeOnCompressedBytes)
{
    SimdLevelAtExit restore;
    Rng rng(11);
    for (unsigned trial = 0; trial < 200; ++trial) {
        const unsigned lanes = 1 + rng.next32() % 64;
        std::vector<Word> values(lanes);
        const unsigned family = rng.next32() % 4;
        for (unsigned i = 0; i < lanes; ++i) {
            switch (family) {
              case 0: values[i] = 0xDEADBEEF; break;
              case 1: values[i] = 0xDEADBE00 + i; break;
              case 2: values[i] = 0xDEAD0000 + i * 257; break;
              default: values[i] = rng.next32(); break;
            }
        }

        setSimdLevel(SimdLevel::Off);
        const std::vector<std::uint8_t> ref = byteMaskCompress(values);
        const unsigned msbs =
            analyzeByteMask(values, laneMaskLow(lanes)).commonMsbs;
        EXPECT_EQ(byteMaskDecompress(ref, msbs, lanes), values);
        for (const SimdLevel l : supportedLevels()) {
            setSimdLevel(l);
            EXPECT_EQ(ref, byteMaskCompress(values))
                << "trial " << trial << " level " << simdLevelName(l);
        }
    }
}

TEST(SimdDispatch, SimdLevelsByteIdenticalEndToEnd)
{
    setQuiet(true);
    SimdLevelAtExit restoreSimd;

    setSimdLevel(SimdLevel::Off);
    ArchConfig cfg;
    const std::string ref = csvRow(runWorkload("BP", cfg));

    for (const SimdLevel l : supportedLevels()) {
        setSimdLevel(l);
        EXPECT_EQ(ref, csvRow(runWorkload("BP", cfg)))
            << "GS_SIMD=" << simdLevelName(l);
    }
}

} // namespace
} // namespace gs
