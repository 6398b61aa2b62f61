#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "common/bit_utils.hpp"
#include "common/rng.hpp"
#include "compress/affine.hpp"
#include "compress/byte_mask_codec.hpp"
#include "compress/reg_meta.hpp"

namespace gs
{
namespace
{

constexpr unsigned kWarp = 32;
constexpr unsigned kGran = 16;
const LaneMask kFull = laneMaskLow(kWarp);

std::vector<Word>
scalarReg(Word v)
{
    return std::vector<Word>(kWarp, v);
}

TEST(RegMeta, NonDivergentScalarWrite)
{
    const auto v = scalarReg(0x1234);
    const RegMeta m = analyzeWrite(v, kFull, kFull, kGran);
    EXPECT_TRUE(m.valid);
    EXPECT_FALSE(m.divergent);
    EXPECT_EQ(m.fullEnc, 4);
    EXPECT_EQ(m.fullBase, 0x1234u);
    EXPECT_TRUE(m.fullScalar());
    EXPECT_TRUE(m.groupScalar(0));
    EXPECT_TRUE(m.groupScalar(1));
}

TEST(RegMeta, HalfScalarTwoDistinctValues)
{
    // First half holds A, second half holds B: each group scalar, FS
    // would be 0 (Section 4.3).
    std::vector<Word> v(kWarp, 0xAAAA0000);
    for (unsigned i = 16; i < 32; ++i)
        v[i] = 0xBBBB0000;
    const RegMeta m = analyzeWrite(v, kFull, kFull, kGran);
    EXPECT_TRUE(m.groupScalar(0));
    EXPECT_TRUE(m.groupScalar(1));
    EXPECT_FALSE(m.fullScalar());
    EXPECT_EQ(m.groupBase[0], 0xAAAA0000u);
    EXPECT_EQ(m.groupBase[1], 0xBBBB0000u);
}

TEST(RegMeta, DivergentWriteStoresMask)
{
    // Fig. 6: a divergent write with a uniform value over active lanes
    // records enc = 1111 and keeps the active mask in the BVR.
    std::vector<Word> v(kWarp, 0);
    const LaneMask mask = 0b10101100;
    for (unsigned i = 0; i < kWarp; ++i)
        if (mask & (LaneMask{1} << i))
            v[i] = 0xAA;
    const RegMeta m = analyzeWrite(v, mask, kFull, kGran);
    EXPECT_TRUE(m.divergent);
    EXPECT_EQ(m.fullEnc, 4);
    EXPECT_EQ(m.writeMask, mask);
    EXPECT_FALSE(m.fullScalar()); // D=1 suppresses the FS view
    EXPECT_FALSE(m.groupScalar(0));
}

TEST(RegMeta, DivergentWriteNonUniformValues)
{
    std::vector<Word> v(kWarp, 0);
    v[0] = 0x11;
    v[2] = 0x22334455;
    const RegMeta m = analyzeWrite(v, 0b101, kFull, kGran);
    EXPECT_TRUE(m.divergent);
    EXPECT_LT(m.fullEnc, 4);
}

TEST(RegMeta, PartialWarpFullMaskIsNonDivergent)
{
    // A warp owning only 8 lanes writing all 8 is not divergent.
    const LaneMask full8 = laneMaskLow(8);
    std::vector<Word> v(8, 7);
    const RegMeta m = analyzeWrite(v, full8, full8, 8);
    EXPECT_FALSE(m.divergent);
    EXPECT_TRUE(m.fullScalar());
}

TEST(RegMeta, ShadowBdiTracked)
{
    std::vector<Word> v;
    for (Word i = 0; i < kWarp; ++i)
        v.push_back(100 + i);
    const RegMeta m = analyzeWrite(v, kFull, kFull, kGran);
    EXPECT_EQ(m.bdiMode, BdiMode::BaseDelta1);
    EXPECT_EQ(m.bdiBytes, 4u + kWarp);
}

TEST(RegMeta, GroupEncIndependentPerGroup)
{
    std::vector<Word> v;
    for (unsigned i = 0; i < 16; ++i)
        v.push_back(0xAB000000 + i); // 3-byte common in group 0
    for (unsigned i = 0; i < 16; ++i)
        v.push_back(0x11223344);     // scalar in group 1
    const RegMeta m = analyzeWrite(v, kFull, kFull, kGran);
    EXPECT_EQ(m.groupEnc[0], 3);
    EXPECT_EQ(m.groupEnc[1], 4);
    EXPECT_FALSE(m.groupScalar(0));
    EXPECT_TRUE(m.groupScalar(1));
}

TEST(RegMeta, WarpSize64Groups)
{
    std::vector<Word> v(64);
    for (unsigned g = 0; g < 4; ++g)
        for (unsigned i = 0; i < 16; ++i)
            v[g * 16 + i] = 0x1000 * (g + 1);
    const RegMeta m =
        analyzeWrite(v, laneMaskLow(64), laneMaskLow(64), 16);
    for (unsigned g = 0; g < 4; ++g) {
        EXPECT_TRUE(m.groupScalar(g)) << "group " << g;
        EXPECT_EQ(m.groupBase[g], 0x1000u * (g + 1));
    }
    EXPECT_FALSE(m.fullScalar());
}

// ---- analyzeWrite's shortcuts against the plain composition ---------------
//
// analyzeWrite skips the shadow BDI and affine passes for a scalar
// write, and the per-group passes when that write covers every lane;
// analyzeBdi and analyzeAffine have a mask-free loop for full writes.
// The reference below is the composition without any of that: every
// pass, each a per-lane loop with a mask test.

BdiEncoding
plainBdi(std::span<const Word> values, LaneMask active)
{
    const Word base = values[firstLane(active)];
    bool all_zero = true;
    bool all_same = true;
    std::int64_t max_abs_delta = 0;
    for (unsigned lane = 0; lane < values.size(); ++lane) {
        if (!(active & (LaneMask{1} << lane)))
            continue;
        const Word v = values[lane];
        all_zero &= (v == 0);
        all_same &= (v == base);
        const std::int64_t delta = std::int64_t(std::int32_t(v - base));
        max_abs_delta =
            std::max(max_abs_delta, std::int64_t(std::llabs(delta)));
    }
    BdiEncoding e;
    e.base = base;
    e.mode = all_zero                ? BdiMode::Zero
             : all_same              ? BdiMode::Scalar
             : max_abs_delta < 128   ? BdiMode::BaseDelta1
             : max_abs_delta < 32768 ? BdiMode::BaseDelta2
                                     : BdiMode::Uncompressed;
    e.storedBytes = bdiStoredBytes(e.mode, unsigned(values.size()));
    return e;
}

AffineInfo
plainAffine(std::span<const Word> values, LaneMask active)
{
    const unsigned first = firstLane(active);
    AffineInfo info;
    const LaneMask rest = active & ~(LaneMask{1} << first);
    if (rest == 0) {
        info.affine = true;
        info.base = values[first];
        return info;
    }
    const unsigned second = firstLane(rest);
    const Word diff = values[second] - values[first];
    const unsigned gap = second - first;
    if (gap > 1 && diff % gap != 0)
        return info;
    const Word stride = gap > 1 ? diff / gap : diff;
    const Word base = values[first] - stride * first;
    for (unsigned lane = 0; lane < values.size(); ++lane) {
        if (!(active & (LaneMask{1} << lane)))
            continue;
        if (values[lane] != base + stride * lane)
            return info;
    }
    info.affine = true;
    info.base = base;
    info.stride = stride;
    return info;
}

RegMeta
plainAnalyzeWrite(std::span<const Word> values, LaneMask mask,
                  LaneMask full_mask, unsigned granularity)
{
    RegMeta m;
    m.valid = true;
    m.divergent = mask != full_mask;
    m.writeMask = mask;
    const ByteMaskEncoding full = analyzeByteMask(values, mask);
    m.fullEnc = std::uint8_t(full.commonMsbs);
    m.fullBase = full.base;
    if (!m.divergent) {
        for (unsigned g = 0; g < values.size() / granularity; ++g) {
            const ByteMaskEncoding e = analyzeByteMask(
                values.subspan(g * granularity, granularity),
                laneMaskLow(granularity));
            m.groupEnc[g] = std::uint8_t(e.commonMsbs);
            m.groupBase[g] = e.base;
        }
    }
    const BdiEncoding bdi = plainBdi(values, mask);
    m.bdiMode = bdi.mode;
    m.bdiBytes = std::uint16_t(bdi.storedBytes);
    const AffineInfo aff = plainAffine(values, mask);
    m.affine = aff.affine;
    m.affineStride = aff.stride;
    return m;
}

/** One random register image, from a mix of value shapes. */
std::vector<Word>
randomValues(Rng &rng, unsigned lanes)
{
    std::vector<Word> v(lanes);
    const Word base = rng.below(4) == 0 ? 0 : rng.next32();
    const Word kStrides[] = {0, 1, Word(-1), 4, 0x10000, 0x7fffffff};
    switch (rng.below(8)) {
      case 0: // all equal (all zero when base is)
        std::fill(v.begin(), v.end(), base);
        break;
      case 1: { // ramp
        const Word stride = kStrides[rng.below(std::size(kStrides))];
        for (unsigned i = 0; i < lanes; ++i)
            v[i] = base + stride * i;
        break;
      }
      case 2: // INT32_MIN/MAX mixes
        for (Word &w : v)
            w = rng.below(2) ? Word(INT32_MIN) : Word(INT32_MAX);
        break;
      case 3: // small and mid-sized deltas around the base
        for (Word &w : v)
            w = base + Word(rng.range(-200, 200)) *
                           (rng.below(2) ? 1u : 150u);
        break;
      case 4: // two values, one per half
        for (unsigned i = 0; i < lanes; ++i)
            v[i] = i < lanes / 2 ? base : base ^ 0x80;
        break;
      case 5: // equal except one lane
        std::fill(v.begin(), v.end(), base);
        v[rng.below(lanes)] ^= Word(1) << rng.below(32);
        break;
      default:
        for (Word &w : v)
            w = rng.next32();
        break;
    }
    return v;
}

void
expectSameMeta(const RegMeta &got, const RegMeta &want)
{
    EXPECT_EQ(got.valid, want.valid);
    EXPECT_EQ(got.divergent, want.divergent);
    EXPECT_EQ(got.fullEnc, want.fullEnc);
    EXPECT_EQ(got.fullBase, want.fullBase);
    EXPECT_EQ(got.groupEnc, want.groupEnc);
    EXPECT_EQ(got.groupBase, want.groupBase);
    EXPECT_EQ(got.writeMask, want.writeMask);
    EXPECT_EQ(got.bdiMode, want.bdiMode);
    EXPECT_EQ(got.bdiBytes, want.bdiBytes);
    EXPECT_EQ(got.affine, want.affine);
    EXPECT_EQ(got.affineStride, want.affineStride);
    EXPECT_EQ(got.profileEnc, want.profileEnc);
}

TEST(RegMeta, ShortcutsMatchPlainComposition)
{
    // Warp sizes 8, 32 and 64 at granularities 8 and 16, wherever the
    // granularity divides the warp into at most kMaxGroups groups.
    struct Shape
    {
        unsigned warp, gran;
    };
    const Shape kShapes[] = {{8, 8}, {32, 8}, {32, 16}, {64, 16}};
    Rng rng(0x5eed'ca11);
    unsigned scalar_full = 0, partial_warp = 0, divergent = 0;
    for (unsigned iter = 0; iter < 12'000; ++iter) {
        const Shape sh = kShapes[iter % std::size(kShapes)];
        std::vector<Word> v = randomValues(rng, sh.warp);
        // The warp owns all lanes, or (partial last warp) fewer.
        const unsigned owned =
            rng.below(4) == 0 ? 1 + unsigned(rng.below(sh.warp)) : sh.warp;
        const LaneMask full = laneMaskLow(owned);
        LaneMask mask = full;
        switch (rng.below(4)) {
          case 0: // one lane
            mask = LaneMask{1} << rng.below(owned);
            break;
          case 1: // divergent
            mask = full & rng.next64();
            if (mask == 0)
                mask = LaneMask{1} << rng.below(owned);
            break;
          default: break;
        }
        const RegMeta got = analyzeWrite(v, mask, full, sh.gran);
        const RegMeta want = plainAnalyzeWrite(v, mask, full, sh.gran);
        SCOPED_TRACE(::testing::Message()
                     << "iter " << iter << " warp " << sh.warp << " gran "
                     << sh.gran << " owned " << owned << " mask 0x"
                     << std::hex << mask);
        expectSameMeta(got, want);
        EXPECT_EQ(analyzeBdi(v, mask).mode, plainBdi(v, mask).mode);
        const AffineInfo aff = analyzeAffine(v, mask);
        const AffineInfo plain_aff = plainAffine(v, mask);
        EXPECT_EQ(aff.affine, plain_aff.affine);
        EXPECT_EQ(aff.base, plain_aff.base);
        EXPECT_EQ(aff.stride, plain_aff.stride);
        if (::testing::Test::HasFailure())
            return;

        scalar_full += want.fullEnc == 4 && mask == laneMaskLow(sh.warp);
        partial_warp += owned < sh.warp && mask == full;
        divergent += mask != full;
    }
    // Every shortcut and its exception was exercised.
    EXPECT_GT(scalar_full, 500u);
    EXPECT_GT(partial_warp, 500u);
    EXPECT_GT(divergent, 2000u);
}

} // namespace
} // namespace gs
