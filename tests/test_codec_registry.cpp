/**
 * @file
 * Conformance suite for the codec registry (compress/codec.hpp):
 * every registered codec must round-trip random and adversarial
 * register files, reject hostile blobs (truncated, bit-flipped,
 * wrong-codec) with an error instead of undefined behaviour, price
 * accesses within the RF geometry envelope, and keep the config
 * fingerprint sensitive to the codec choice. The RRCD chaos test at
 * the end proves the absorption contract: with rf:stuck-array armed,
 * the redirection codec's simulation counters stay byte-identical to
 * the fault-free run while the health counters record the repair.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/codec_id.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "compress/codec.hpp"
#include "compress/reg_meta.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "harness/runner.hpp"
#include "obs/metrics.hpp"

using namespace gs;
using compress::Codec;

namespace
{

/** Disarm the global injector on scope exit, whatever happens. */
struct DisarmAtExit
{
    ~DisarmAtExit() { faultInjector().disarm(); }
};

/** Adversarial register files the encoders must survive. */
std::vector<std::vector<Word>>
adversarialFiles()
{
    std::vector<std::vector<Word>> files;
    files.push_back(std::vector<Word>(32, 0));          // all zero
    files.push_back(std::vector<Word>(32, 0xFFFFFFFF)); // all ones
    files.push_back(std::vector<Word>(1, 0xDEADBEEF));  // single lane
    std::vector<Word> alternating(32);
    for (unsigned i = 0; i < 32; ++i)
        alternating[i] = (i & 1) ? 0xFFFFFFFF : 0;
    files.push_back(alternating);
    std::vector<Word> ramp(17); // non-power-of-two lane count
    for (unsigned i = 0; i < 17; ++i)
        ramp[i] = 0x80000000u + i;
    files.push_back(ramp);
    return files;
}

} // namespace

TEST(CodecRegistry, EnumeratesEveryIdInStableOrder)
{
    const std::vector<const Codec *> &codecs = compress::allCodecs();
    ASSERT_EQ(codecs.size(), kNumCodecs);
    for (std::size_t i = 0; i < codecs.size(); ++i) {
        EXPECT_EQ(unsigned(codecs[i]->id()), i) << "registry order";
        EXPECT_EQ(&compress::codecFor(codecs[i]->id()), codecs[i]);
        // Every CLI spelling resolves back to the same instance.
        EXPECT_EQ(compress::findCodec(codecs[i]->name()), codecs[i]);
    }
    EXPECT_EQ(compress::findCodec("definitely-not-a-codec"), nullptr);
    EXPECT_EQ(compress::findCodec(""), nullptr);
}

TEST(CodecRegistry, RoundTripsRandomRegisterFiles)
{
    Rng rng(0xC0DEC);
    for (const Codec *codec : compress::allCodecs()) {
        for (unsigned trial = 0; trial < 200; ++trial) {
            const unsigned lanes = 1 + rng.next32() % 32;
            std::vector<Word> values(lanes);
            // Mix compressible and incompressible families.
            const Word base = rng.next32();
            for (unsigned i = 0; i < lanes; ++i) {
                switch (trial % 4) {
                  case 0: values[i] = base; break;
                  case 1: values[i] = base + i * 8; break;
                  case 2: values[i] = (base & 0xFFFF0000) + i; break;
                  default: values[i] = rng.next32(); break;
                }
            }
            const std::vector<std::uint8_t> blob = codec->encode(values);
            std::string err;
            const std::optional<std::vector<Word>> back =
                codec->decode(blob, &err);
            ASSERT_TRUE(back) << codec->name() << " trial " << trial
                              << ": " << err;
            EXPECT_EQ(*back, values) << codec->name();
        }
    }
}

TEST(CodecRegistry, RoundTripsAdversarialRegisterFiles)
{
    for (const Codec *codec : compress::allCodecs()) {
        for (const std::vector<Word> &values : adversarialFiles()) {
            const std::vector<std::uint8_t> blob = codec->encode(values);
            std::string err;
            const std::optional<std::vector<Word>> back =
                codec->decode(blob, &err);
            ASSERT_TRUE(back) << codec->name() << ": " << err;
            EXPECT_EQ(*back, values) << codec->name();
        }
    }
}

TEST(CodecRegistry, DecodeRejectsTruncatedBlobs)
{
    const std::vector<Word> values = {1, 2, 3, 4, 5, 6, 7, 8};
    for (const Codec *codec : compress::allCodecs()) {
        const std::vector<std::uint8_t> blob = codec->encode(values);
        // Every strict prefix must error, never crash or mis-decode.
        for (std::size_t len = 0; len < blob.size(); ++len) {
            std::string err;
            const auto back = codec->decode(
                std::span<const std::uint8_t>(blob.data(), len), &err);
            EXPECT_FALSE(back)
                << codec->name() << " accepted a " << len
                << "-byte prefix of a " << blob.size() << "-byte blob";
            EXPECT_FALSE(err.empty()) << codec->name();
        }
    }
}

TEST(CodecRegistry, DecodeRejectsBitFlippedBlobs)
{
    Rng rng(0xF11F);
    for (const Codec *codec : compress::allCodecs()) {
        std::vector<Word> values(32);
        for (unsigned i = 0; i < 32; ++i)
            values[i] = rng.next32();
        const std::vector<std::uint8_t> blob = codec->encode(values);
        // Flip every bit position in turn: header corruption must be
        // rejected structurally, payload corruption by the checksum.
        for (std::size_t byte = 0; byte < blob.size(); ++byte) {
            for (unsigned bit = 0; bit < 8; ++bit) {
                std::vector<std::uint8_t> bad = blob;
                bad[byte] ^= std::uint8_t(1u << bit);
                std::string err;
                const auto back = codec->decode(bad, &err);
                EXPECT_FALSE(back)
                    << codec->name() << ": flip of byte " << byte
                    << " bit " << bit << " decoded";
                EXPECT_FALSE(err.empty()) << codec->name();
            }
        }
    }
}

TEST(CodecRegistry, DecodeRejectsForeignCodecBlobs)
{
    const std::vector<Word> values(32, 0xC04039C0);
    const std::vector<const Codec *> &codecs = compress::allCodecs();
    for (const Codec *producer : codecs) {
        const std::vector<std::uint8_t> blob = producer->encode(values);
        for (const Codec *consumer : codecs) {
            // The byte-mask family shares one blob format on purpose;
            // only cross-family decodes must be rejected.
            if (consumer->id() == producer->id())
                continue;
            std::string err;
            const auto back = consumer->decode(blob, &err);
            if (back)
                EXPECT_EQ(*back, values)
                    << producer->name() << " -> " << consumer->name();
            else
                EXPECT_FALSE(err.empty());
        }
    }
}

TEST(CodecRegistry, AccessCostsStayWithinGeometry)
{
    const RfGeometry geo;
    const LaneMask full = laneMaskLow(32);
    for (const Codec *codec : compress::allCodecs()) {
        for (unsigned family = 0; family < 4; ++family) {
            Rng rng(family + 1);
            std::vector<Word> v(32);
            for (unsigned i = 0; i < 32; ++i)
                v[i] = family == 0   ? 0xC04039C0
                       : family == 1 ? 0xC04039C0 + i * 8
                       : family == 2 ? 0xC0400000 + i * 1024
                                     : rng.next32();
            RegMeta meta = analyzeWrite(v, full, full, geo.granularity);
            codec->updateMeta(RegMeta{}, meta);
            for (const bool half : {false, true}) {
                const AccessCost rd =
                    codec->readCost(geo, meta, full, half, false);
                const AccessCost wr =
                    codec->writeCost(geo, meta, half, false);
                const unsigned stored =
                    codec->regStoredBytes(geo, meta, half);
                EXPECT_LE(rd.arrays, geo.byteArrays()) << codec->name();
                EXPECT_LE(wr.arrays, geo.byteArrays()) << codec->name();
                EXPECT_LE(rd.bytes, geo.regBytes()) << codec->name();
                EXPECT_LE(wr.bytes, geo.regBytes()) << codec->name();
                EXPECT_GE(stored, 1u) << codec->name();
                EXPECT_LE(stored, geo.regBytes()) << codec->name();
                EXPECT_GT(codec->metadataBitsPerReg(geo, half), 0u)
                    << codec->name();
            }
        }
        // The scalar family must never cost more than the random one.
        std::vector<Word> scalar(32, 0xC04039C0);
        Rng rng(99);
        std::vector<Word> random(32);
        for (unsigned i = 0; i < 32; ++i)
            random[i] = rng.next32();
        RegMeta ms = analyzeWrite(scalar, full, full, geo.granularity);
        RegMeta mr = analyzeWrite(random, full, full, geo.granularity);
        codec->updateMeta(RegMeta{}, ms);
        codec->updateMeta(RegMeta{}, mr);
        EXPECT_LE(codec->regStoredBytes(geo, ms, false),
                  codec->regStoredBytes(geo, mr, false))
            << codec->name();
    }
}

TEST(CodecRegistry, CapsMatchTheSchemes)
{
    const compress::CodecCaps bm =
        compress::codecFor(CodecId::ByteMask).caps();
    EXPECT_TRUE(bm.fullScalar);
    EXPECT_TRUE(bm.halfScalar);
    EXPECT_TRUE(bm.divergentScalar);
    EXPECT_TRUE(bm.scalarFromMeta);
    EXPECT_TRUE(bm.insertsSpecialMoves);
    EXPECT_FALSE(bm.absorbsStuckFaults);

    const compress::CodecCaps bdi =
        compress::codecFor(CodecId::Bdi).caps();
    EXPECT_TRUE(bdi.fullScalar);
    EXPECT_FALSE(bdi.halfScalar) << "BDI has no per-group encodings";
    EXPECT_FALSE(bdi.divergentScalar);

    const compress::CodecCaps sp =
        compress::codecFor(CodecId::StaticProfile).caps();
    EXPECT_FALSE(sp.halfScalar);

    const compress::CodecCaps rrcd =
        compress::codecFor(CodecId::Rrcd).caps();
    EXPECT_TRUE(rrcd.absorbsStuckFaults);
    EXPECT_TRUE(rrcd.fullScalar);
}

TEST(CodecRegistry, StaticProfileFreezesTheFirstEncoding)
{
    const Codec &sp = compress::codecFor(CodecId::StaticProfile);
    const RfGeometry geo;
    const LaneMask full = laneMaskLow(32);
    const std::vector<Word> scalar(32, 7);
    std::vector<Word> random(32);
    Rng rng(5);
    for (unsigned i = 0; i < 32; ++i)
        random[i] = rng.next32();

    // First write profiles the register as fully compressible...
    RegMeta first = analyzeWrite(scalar, full, full, geo.granularity);
    sp.updateMeta(RegMeta{}, first);
    EXPECT_TRUE(sp.regScalar(first));
    // ...and the frozen profile persists across later writes: a
    // random value cannot be stored compressed any more, but the
    // profile byte itself stays what the first write decided.
    RegMeta second = analyzeWrite(random, full, full, geo.granularity);
    sp.updateMeta(first, second);
    EXPECT_EQ(second.profileEnc, first.profileEnc);
    EXPECT_FALSE(sp.regScalar(second));
}

TEST(CodecRegistry, FingerprintIsSensitiveToTheCodec)
{
    ArchConfig a;
    std::vector<std::uint64_t> prints;
    for (const Codec *codec : compress::allCodecs()) {
        a.codec = codec->id();
        prints.push_back(a.fingerprint());
    }
    for (std::size_t i = 0; i < prints.size(); ++i)
        for (std::size_t j = i + 1; j < prints.size(); ++j)
            EXPECT_NE(prints[i], prints[j])
                << "codecs " << i << " and " << j
                << " share a run-cache key";
}

TEST(CodecRegistry, BdiCodecMatchesWarpedCompressionMode)
{
    // The warped-compression mode and gscalar-compress with the bdi
    // codec model one scheme by two paths. Every counter agrees except
    // three documented gaps (ROADMAP item 3), pinned here as gaps so
    // that closing or widening one shows:
    //  - the mode never counts its metadata reads (bvr_accesses);
    //  - its comp_bytes_compressed reports the byte-mask codec;
    //  - its codec energy uses the byte-mask constants, and its RF
    //    power leaves out the metadata reads.
    for (const char *workload : {"LC", "SR2", "HS", "ST"}) {
        ArchConfig modeCfg;
        modeCfg.mode = ArchMode::WarpedCompression;
        ArchConfig codecCfg;
        codecCfg.mode = ArchMode::GScalarCompressOnly;
        codecCfg.codec = CodecId::Bdi;
        const RunResult m = runWorkload(workload, modeCfg);
        const RunResult c = runWorkload(workload, codecCfg);

        for (const MetricDef &def : eventMetrics()) {
            const std::string name = def.name;
            if (name == "bvr_accesses" || name == "comp_bytes_compressed")
                continue;
            EXPECT_EQ(def.value(m.ev), def.value(c.ev))
                << workload << ": " << name;
        }
        EXPECT_EQ(m.ev.bvrAccesses, 0u) << workload;
        EXPECT_GT(c.ev.bvrAccesses, 0u) << workload;
        EXPECT_NE(m.ev.compBytesCompressed, c.ev.compBytesCompressed)
            << workload;

        EXPECT_EQ(m.power.frontendW, c.power.frontendW) << workload;
        EXPECT_EQ(m.power.executeW, c.power.executeW) << workload;
        EXPECT_EQ(m.power.sfuW, c.power.sfuW) << workload;
        EXPECT_EQ(m.power.memoryW, c.power.memoryW) << workload;
        EXPECT_EQ(m.power.staticW, c.power.staticW) << workload;
        EXPECT_EQ(m.power.ipc, c.power.ipc) << workload;
        EXPECT_LT(m.power.codecW, c.power.codecW) << workload;
        EXPECT_LT(m.power.regFileW, c.power.regFileW) << workload;
    }
}

TEST(CodecRegistry, StuckArrayFaultIsAPureCoordinateFunction)
{
    DisarmAtExit disarm;
    std::string err;
    ASSERT_TRUE(faultInjector().configure("rf:stuck-array:0.5:11", &err))
        << err;
    bool any = false, all = true;
    for (unsigned sm = 0; sm < 4; ++sm)
        for (unsigned bank = 0; bank < 8; ++bank)
            for (unsigned array = 0; array < 16; ++array) {
                const bool first = stuckArrayFault(sm, bank, array);
                EXPECT_EQ(first, stuckArrayFault(sm, bank, array))
                    << "not deterministic at (" << sm << "," << bank
                    << "," << array << ")";
                any |= first;
                all &= first;
            }
    EXPECT_TRUE(any) << "rate 0.5 marked nothing stuck";
    EXPECT_FALSE(all) << "rate 0.5 marked everything stuck";
    faultInjector().disarm();
    EXPECT_FALSE(stuckArrayFault(0, 0, 0)) << "disarmed injector fired";
}

/**
 * The RRCD absorption contract (satellite of the codec framework):
 * with rf:stuck-array armed, the redirection codec soaks the stuck
 * arrays in the compressed registers' spare capacity — the simulated
 * counters and the power report stay byte-identical to the fault-free
 * run, and only the health counters record that repairs happened.
 */
TEST(CodecChaos, RrcdAbsorbsStuckArraysByteIdentically)
{
    DisarmAtExit disarm;
    ArchConfig cfg;
    cfg.mode = ArchMode::GScalarFull;
    cfg.codec = CodecId::Rrcd;

    faultInjector().disarm();
    const RunResult clean = runWorkload("BT", cfg);
    ASSERT_TRUE(clean.ok()) << clean.error;

    const std::uint64_t stuckBefore =
        healthCounters().rfStuckArrays.load();
    const std::uint64_t redirectedBefore =
        healthCounters().rfRedirectedRegisters.load();

    std::string err;
    ASSERT_TRUE(faultInjector().configure("rf:stuck-array:0.4:7", &err))
        << err;
    const RunResult faulty = runWorkload("BT", cfg);
    faultInjector().disarm();
    ASSERT_TRUE(faulty.ok()) << faulty.error;

    // Byte-identical observable result: every event counter and the
    // whole power report match the fault-free run.
#define GS_CHECK_EVENT(member, name, unit, doc)                              \
    EXPECT_EQ(clean.ev.member, faulty.ev.member) << name;
    GS_EVENT_COUNT_FIELDS(GS_CHECK_EVENT)
#undef GS_CHECK_EVENT
    EXPECT_DOUBLE_EQ(clean.power.totalW, faulty.power.totalW);
    EXPECT_DOUBLE_EQ(clean.power.regFileW, faulty.power.regFileW);
    EXPECT_DOUBLE_EQ(clean.power.ipc, faulty.power.ipc);

    // ...while the health counters prove the repair actually ran.
    EXPECT_GT(healthCounters().rfStuckArrays.load(), stuckBefore)
        << "rate 0.4 should mark some arrays stuck";
    EXPECT_GT(healthCounters().rfRedirectedRegisters.load(),
              redirectedBefore)
        << "BT writes compressed registers, some must redirect";
}
