#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"

namespace gs
{
namespace
{

TEST(Config, DefaultsValidate)
{
    ArchConfig cfg;
    cfg.validate(); // must not exit
}

TEST(Config, DerivedHelpers)
{
    ArchConfig cfg;
    EXPECT_EQ(cfg.warpsPerCta(256), 8u);
    EXPECT_EQ(cfg.warpsPerCta(40), 2u);
    EXPECT_EQ(cfg.groupsPerWarp(), 2u);
    EXPECT_EQ(cfg.dispatchCycles(16), 2u);
    EXPECT_EQ(cfg.dispatchCycles(4), 8u);

    cfg.warpSize = 64;
    EXPECT_EQ(cfg.groupsPerWarp(), 4u);
    EXPECT_EQ(cfg.dispatchCycles(16), 4u);
}

TEST(Config, ExtraCyclesFollowMode)
{
    ArchConfig cfg;
    EXPECT_EQ(cfg.extraCycles(), 0u);
    cfg.mode = ArchMode::GScalarFull;
    EXPECT_EQ(cfg.extraCycles(), 3u);
    cfg.mode = ArchMode::WarpedCompression;
    EXPECT_EQ(cfg.extraCycles(), 3u);
    cfg.mode = ArchMode::AluScalar;
    EXPECT_EQ(cfg.extraCycles(), 0u);
}

TEST(Config, ModePredicates)
{
    EXPECT_TRUE(usesByteMaskCompression(ArchMode::GScalarCompressOnly));
    EXPECT_FALSE(usesByteMaskCompression(ArchMode::WarpedCompression));
    EXPECT_TRUE(usesBdiCompression(ArchMode::WarpedCompression));
    EXPECT_TRUE(usesSingleBankScalarRf(ArchMode::AluScalar));
    EXPECT_FALSE(usesSingleBankScalarRf(ArchMode::GScalarFull));
    EXPECT_EQ(archModeName(ArchMode::GScalarFull), "gscalar");
}

TEST(Config, DescribeRendersTable1)
{
    const std::string s = ArchConfig{}.describe();
    EXPECT_NE(s.find("# of SMs"), std::string::npos);
    EXPECT_NE(s.find("15"), std::string::npos);
    EXPECT_NE(s.find("1.4GHz"), std::string::npos);
    EXPECT_NE(s.find("768KB"), std::string::npos);
}

TEST(ConfigDeath, RejectsBadWarpSize)
{
    ArchConfig cfg;
    cfg.warpSize = 48;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "power of two");
    cfg.warpSize = 128;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "out of range");
}

TEST(ConfigDeath, RejectsBadGranularity)
{
    ArchConfig cfg;
    cfg.checkGranularity = 12;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "granularity");
}

TEST(ConfigDeath, RejectsBadCacheGeometry)
{
    ArchConfig cfg;
    cfg.l1Bytes = 1000;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "L1");
}

TEST(ConfigCheck, RejectsOversizedCounts)
{
    // Sizes a hostile request could ask for: each would make a Gpu
    // allocate per-SM state for billions of entries.
    const std::vector<
        std::pair<const char *, std::function<void(ArchConfig &)>>>
        huge = {
            {"numSms", [](ArchConfig &c) { c.numSms = 1'000'000'000; }},
            {"numCollectors",
             [](ArchConfig &c) { c.numCollectors = 1u << 31; }},
            {"l1Bytes", [](ArchConfig &c) { c.l1Bytes = 1u << 31; }},
            {"l2Bytes", [](ArchConfig &c) { c.l2Bytes = 1u << 31; }},
            {"maxThreadsPerSm",
             [](ArchConfig &c) { c.maxThreadsPerSm = 1u << 31; }},
        };
    for (const auto &[name, mutate] : huge) {
        ArchConfig cfg;
        mutate(cfg);
        const std::string err = cfg.check();
        EXPECT_NE(err.find(name), std::string::npos)
            << name << ": " << err;
    }
}

TEST(ConfigCheck, PerRequestStateBudgetBoundsTheProducts)
{
    // Table 1 at the largest SM count fits both budgets.
    ArchConfig cfg;
    cfg.numSms = 4096;
    EXPECT_EQ(cfg.check(), "");
    cfg.maxThreadsPerSm = 2048; // 64 warp slots x 4096 SMs: the budget
    EXPECT_EQ(cfg.check(), "");
    cfg.maxThreadsPerSm = 2080; // one slot more per SM
    EXPECT_NE(cfg.check().find("warp slots"), std::string::npos)
        << cfg.check();

    cfg = ArchConfig{};
    cfg.numSms = 4096;
    cfg.l1Bytes = 64 * 1024; // 512 lines per SM
    EXPECT_NE(cfg.check().find("L1 lines"), std::string::npos)
        << cfg.check();

    // Every field within its own bound, the product not: the old
    // worst case of about 101 GiB per Gpu.
    cfg = ArchConfig{};
    cfg.numSms = 4096;
    cfg.maxThreadsPerSm = 98304;
    cfg.l1Bytes = 1u << 20;
    cfg.lineBytes = 4;
    EXPECT_NE(cfg.check().find("per-request budget"), std::string::npos)
        << cfg.check();
}

TEST(ConfigCheck, RejectsCacheGeometryThatCannotBeBuilt)
{
    // 2^31 x 2 wraps a 32-bit product to 0.
    ArchConfig cfg;
    cfg.lineBytes = 1u << 31;
    cfg.l1Assoc = 2;
    EXPECT_FALSE(cfg.check().empty());

    // One 8-way set of 128 B lines split over 6 channels leaves each
    // channel's L2 slice without a set.
    cfg = ArchConfig{};
    cfg.l2Bytes = 1024;
    EXPECT_NE(cfg.check().find("L2"), std::string::npos);
}

} // namespace
} // namespace gs
