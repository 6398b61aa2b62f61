#include <gtest/gtest.h>

#include "isa/kernel_builder.hpp"
#include "sim/gpu.hpp"

namespace gs
{
namespace
{

/** out[gtid] = gtid + 100. */
Kernel
gridKernel()
{
    KernelBuilder kb("grid");
    const Reg tid = kb.reg();
    const Reg ctaid = kb.reg();
    const Reg ntid = kb.reg();
    const Reg gtid = kb.reg();
    kb.s2r(tid, SReg::Tid);
    kb.s2r(ctaid, SReg::CtaId);
    kb.s2r(ntid, SReg::NTid);
    kb.imad(gtid, ctaid, ntid, tid);
    const Reg v = kb.reg();
    kb.iaddi(v, gtid, 100);
    const Reg addr = kb.reg();
    kb.shli(addr, gtid, 2);
    kb.iaddi(addr, addr, 0x100000);
    kb.stg(addr, v);
    return kb.build();
}

TEST(GpuIntegration, EveryThreadOfEveryCtaRuns)
{
    ArchConfig cfg;
    cfg.numSms = 4;
    Gpu gpu(cfg);
    gpu.launch(gridKernel(), {20, 96});
    for (unsigned g = 0; g < 20 * 96; ++g)
        EXPECT_EQ(gpu.memory().readWord(0x100000 + 4 * g), g + 100)
            << "gtid " << g;
}

TEST(GpuIntegration, MoreCtasThanCapacity)
{
    ArchConfig cfg;
    cfg.numSms = 2;
    cfg.maxCtasPerSm = 2;
    Gpu gpu(cfg);
    gpu.launch(gridKernel(), {33, 64}); // waves of CTAs
    for (unsigned g = 0; g < 33 * 64; ++g)
        ASSERT_EQ(gpu.memory().readWord(0x100000 + 4 * g), g + 100);
}

TEST(GpuIntegration, EventCountsScaleWithGrid)
{
    ArchConfig cfg;
    cfg.numSms = 4;
    Gpu g1(cfg), g2(cfg);
    const EventCounts e1 = g1.launch(gridKernel(), {4, 64});
    const EventCounts e2 = g2.launch(gridKernel(), {8, 64});
    EXPECT_EQ(e2.warpInsts, 2 * e1.warpInsts);
    EXPECT_EQ(e2.threadInsts, 2 * e1.threadInsts);
}

TEST(GpuIntegration, DeterministicAcrossRuns)
{
    ArchConfig cfg;
    cfg.numSms = 3;
    Gpu a(cfg), b(cfg);
    const EventCounts e1 = a.launch(gridKernel(), {9, 128});
    const EventCounts e2 = b.launch(gridKernel(), {9, 128});
    EXPECT_EQ(e1.cycles, e2.cycles);
    EXPECT_EQ(e1.warpInsts, e2.warpInsts);
    EXPECT_EQ(e1.rfArrayReads, e2.rfArrayReads);
    EXPECT_EQ(e1.l1Misses, e2.l1Misses);
}

TEST(GpuIntegration, MultiSmFasterThanSingleSm)
{
    ArchConfig one;
    one.numSms = 1;
    ArchConfig four;
    four.numSms = 4;
    Gpu g1(one), g4(four);
    const EventCounts e1 = g1.launch(gridKernel(), {16, 256});
    const EventCounts e4 = g4.launch(gridKernel(), {16, 256});
    EXPECT_LT(e4.cycles, e1.cycles);
    EXPECT_EQ(e1.warpInsts, e4.warpInsts);
}

TEST(GpuIntegration, WarpSize64Works)
{
    ArchConfig cfg;
    cfg.numSms = 2;
    cfg.warpSize = 64;
    Gpu gpu(cfg);
    gpu.launch(gridKernel(), {6, 128});
    for (unsigned g = 0; g < 6 * 128; ++g)
        ASSERT_EQ(gpu.memory().readWord(0x100000 + 4 * g), g + 100);
}

TEST(GpuIntegration, SchedulerPoliciesBothComplete)
{
    for (const SchedPolicy p :
         {SchedPolicy::GreedyThenOldest, SchedPolicy::LooseRoundRobin}) {
        ArchConfig cfg;
        cfg.numSms = 2;
        cfg.schedPolicy = p;
        Gpu gpu(cfg);
        const EventCounts ev = gpu.launch(gridKernel(), {8, 128});
        EXPECT_GT(ev.warpInsts, 0u);
        for (unsigned g = 0; g < 8 * 128; ++g)
            ASSERT_EQ(gpu.memory().readWord(0x100000 + 4 * g), g + 100);
    }
}

TEST(GpuIntegrationDeath, RejectsEmptyLaunch)
{
    ArchConfig cfg;
    cfg.numSms = 1;
    Gpu gpu(cfg);
    const Kernel k = gridKernel();
    EXPECT_EXIT(gpu.launch(k, {0, 32}), ::testing::ExitedWithCode(1),
                "empty launch");
}

TEST(GpuIntegrationDeath, RejectsOversizedCta)
{
    ArchConfig cfg;
    cfg.numSms = 1;
    Gpu gpu(cfg);
    const Kernel k = gridKernel();
    // A config that cannot host the CTA is an error the engine can
    // report per run, not a process exit.
    try {
        gpu.launch(k, {1, 4096});
        ADD_FAILURE() << "launch of an oversized CTA returned";
    } catch (const LaunchDoesNotFit &e) {
        EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace gs
