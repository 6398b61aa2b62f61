/**
 * @file
 * Wire-format tests (store/serial.hpp): exact round trips for
 * ArchConfig and RunResult, and rejection of every truncation, every
 * single-bit flip, and every header mismatch. The format feeds both the
 * disk cache and the network daemon, so "malformed input returns
 * nullopt" is a hard guarantee here, not a best effort.
 */

#include <gtest/gtest.h>

#include "common/config.hpp"
#include "store/serial.hpp"

using namespace gs;

namespace
{

/** A config with every field moved off its default. */
ArchConfig
mutatedConfig()
{
    ArchConfig c;
    c.mode = ArchMode::GScalarNoDiv;
    c.numSms = 7;
    c.warpSize = 64;
    c.simtWidth = 8;
    c.sfuWidth = 2;
    c.numAluPipes = 3;
    c.maxThreadsPerSm = 2048;
    c.maxCtasPerSm = 12;
    c.numVregsPerSm = 49152;
    c.numBanks = 8;
    c.arraysPerBank = 2;
    c.numCollectors = 6;
    c.numSchedulers = 4;
    c.schedPolicy = SchedPolicy::LooseRoundRobin;
    c.checkGranularity = 2;
    c.halfRegisterCompression = !c.halfRegisterCompression;
    c.scalarRfBanks = 3;
    c.insertSpecialMoves = !c.insertSpecialMoves;
    c.compilerAssistedSmov = !c.compilerAssistedSmov;
    c.scalarShortensOccupancy = !c.scalarShortensOccupancy;
    c.aluLatency = 6;
    c.mulLatency = 7;
    c.divLatency = 30;
    c.sfuLatency = 9;
    c.lineBytes = 64;
    c.l1Bytes = 32 * 1024;
    c.l1Assoc = 2;
    c.l1Latency = 31;
    c.l1MshrEntries = 24;
    c.l2Bytes = 512 * 1024;
    c.l2Assoc = 4;
    c.l2Latency = 150;
    c.dramLatency = 350;
    c.memChannels = 3;
    c.dramRequestsPerCycle = 1.25;
    c.sharedLatency = 25;
    c.sharedBanks = 16;
    c.coreClockGhz = 1.1;
    c.maxCycles = 123456789;
    c.seed = 0xdeadbeefcafeull;
    return c;
}

RunResult
filledResult()
{
    RunResult r;
    r.workload = "BT";
    r.mode = ArchMode::GScalarFull;
    r.wallSeconds = 1.5;
    r.ev.cycles = 8618;
    r.ev.warpInsts = 141771;
    r.ev.aluEnergyUnits = 3.25;
    r.ev.sfuEnergyUnits = 0.5;
    r.power.frontendW = 1.0;
    r.power.executeW = 2.0;
    r.power.sfuW = 0.25;
    r.power.regFileW = 0.75;
    r.power.codecW = 0.0625;
    r.power.memoryW = 3.5;
    r.power.staticW = 5.0;
    r.power.totalW = 12.5625;
    r.power.ipc = 16.5;
    r.power.seconds = 0.01;
    return r;
}

} // namespace

TEST(Serial, ConfigRoundTripsExactly)
{
    const ArchConfig orig = mutatedConfig();
    const std::vector<std::uint8_t> blob = serializeConfig(orig);

    std::string err;
    const std::optional<ArchConfig> back =
        deserializeConfig(blob.data(), blob.size(), &err);
    ASSERT_TRUE(back.has_value()) << err;

    // Exactness via the serialized form (covers every field) plus the
    // semantic fingerprint.
    EXPECT_EQ(serializeConfig(*back), blob);
    EXPECT_EQ(back->fingerprint(), orig.fingerprint());
    EXPECT_EQ(back->mode, orig.mode);
    EXPECT_EQ(back->warpSize, orig.warpSize);
    EXPECT_EQ(back->seed, orig.seed);
    EXPECT_DOUBLE_EQ(back->coreClockGhz, orig.coreClockGhz);
}

TEST(Serial, DefaultConfigRoundTrips)
{
    const ArchConfig orig;
    const std::vector<std::uint8_t> blob = serializeConfig(orig);
    const std::optional<ArchConfig> back = deserializeConfig(blob);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(serializeConfig(*back), blob);
}

TEST(Serial, ResultRoundTripsExactly)
{
    const RunResult orig = filledResult();
    const std::vector<std::uint8_t> blob = serializeResult(orig);

    std::string err;
    const std::optional<RunResult> back =
        deserializeResult(blob.data(), blob.size(), &err);
    ASSERT_TRUE(back.has_value()) << err;

    EXPECT_EQ(serializeResult(*back), blob);
    EXPECT_EQ(back->workload, orig.workload);
    EXPECT_EQ(back->mode, orig.mode);
    EXPECT_EQ(back->ev.cycles, orig.ev.cycles);
    EXPECT_EQ(back->ev.warpInsts, orig.ev.warpInsts);
    EXPECT_DOUBLE_EQ(back->ev.aluEnergyUnits, orig.ev.aluEnergyUnits);
    EXPECT_DOUBLE_EQ(back->power.totalW, orig.power.totalW);
    EXPECT_DOUBLE_EQ(back->wallSeconds, orig.wallSeconds);
}

TEST(Serial, EveryTruncationIsRejected)
{
    const std::vector<std::uint8_t> blob =
        serializeResult(filledResult());
    for (std::size_t n = 0; n < blob.size(); ++n) {
        const std::optional<RunResult> back =
            deserializeResult(blob.data(), n);
        EXPECT_FALSE(back.has_value())
            << "prefix of " << n << "/" << blob.size()
            << " bytes deserialized";
    }
}

TEST(Serial, EveryBitFlipIsRejected)
{
    const std::vector<std::uint8_t> blob =
        serializeResult(filledResult());
    for (std::size_t i = 0; i < blob.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<std::uint8_t> bad = blob;
            bad[i] = std::uint8_t(bad[i] ^ (1u << bit));
            const std::optional<RunResult> back =
                deserializeResult(bad.data(), bad.size());
            EXPECT_FALSE(back.has_value())
                << "bit " << bit << " of byte " << i
                << " flipped undetected";
        }
    }
}

TEST(Serial, ConfigTruncationAndCorruptionRejected)
{
    const std::vector<std::uint8_t> blob =
        serializeConfig(mutatedConfig());
    for (std::size_t n = 0; n < blob.size(); ++n)
        EXPECT_FALSE(deserializeConfig(blob.data(), n).has_value());
    for (std::size_t i = 0; i < blob.size(); ++i) {
        std::vector<std::uint8_t> bad = blob;
        bad[i] ^= 0x10;
        EXPECT_FALSE(deserializeConfig(bad).has_value())
            << "byte " << i;
    }
}

TEST(Serial, WrongKindIsRejected)
{
    // A valid Config blob presented where a Result is expected.
    const std::vector<std::uint8_t> blob = serializeConfig(ArchConfig{});
    std::string err;
    EXPECT_FALSE(
        deserializeResult(blob.data(), blob.size(), &err).has_value());
    EXPECT_FALSE(err.empty());
}

TEST(Serial, EmptyAndGarbageRejected)
{
    std::string err;
    EXPECT_FALSE(deserializeConfig(nullptr, 0, &err).has_value());
    const std::vector<std::uint8_t> junk(64, 0xa5);
    EXPECT_FALSE(deserializeConfig(junk).has_value());
    EXPECT_FALSE(deserializeResult(junk).has_value());
}

TEST(Serial, UnknownTagsAreSkipped)
{
    // A future writer may append fields; an old reader must keep its
    // defaults for tags it does not know rather than fail.
    ByteWriter w(BlobKind::Config);
    w.field(std::uint16_t(9999), std::uint64_t(42));
    const std::vector<std::uint8_t> blob = w.finish();

    std::string err;
    const std::optional<ArchConfig> back =
        deserializeConfig(blob.data(), blob.size(), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(back->fingerprint(), ArchConfig{}.fingerprint());
}

TEST(Serial, OutOfRangeEnumIsRejected)
{
    // Tag 1 is ArchConfig::mode; 99 names no ArchMode.
    ByteWriter w(BlobKind::Config);
    w.field(std::uint16_t(1), std::uint32_t(99));
    const std::vector<std::uint8_t> blob = w.finish();
    EXPECT_FALSE(deserializeConfig(blob).has_value());
}

TEST(Serial, ConfigBytesAndFingerprintsArePinned)
{
    // Cache files and run keys hold these: the config field table must
    // keep every tag, order and width.
    EXPECT_EQ(ArchConfig{}.fingerprint(), 0x266d609013c3471dull);
    ArchConfig gscalar;
    gscalar.mode = ArchMode::GScalarFull;
    EXPECT_EQ(gscalar.fingerprint(), 0x3d7d3d8d4da33db4ull);

    const std::vector<std::uint8_t> blob = serializeConfig(ArchConfig{});
    EXPECT_EQ(blob.size(), 307u);
    EXPECT_EQ(fnv1a(blob.data(), blob.size()), 0x0caeb91defeadad8ull);
}

TEST(Serial, ChecksumIsFnv1a)
{
    // Pin the trailer algorithm: FNV-1a with the standard offset basis,
    // so independently written readers agree.
    EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a("foobar", 6), 0x85944171f73967e8ull);
}
