/**
 * @file
 * Structural regressions on the benchmark kernels themselves: opcode
 * ingredients, control flow, and resource footprints that the
 * calibration relies on. These catch accidental edits to the kernels
 * without running the simulator.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/config.hpp"
#include "workloads/workload.hpp"

namespace gs
{
namespace
{

std::map<Opcode, unsigned>
opcodeHistogram(const Kernel &k)
{
    std::map<Opcode, unsigned> h;
    for (const Instruction &i : k.code)
        ++h[i.op];
    return h;
}

const Kernel &
kernelOf(const Workload &w)
{
    return w.launches.front().kernel;
}

TEST(WorkloadStructure, BpUsesTranscendentalsAndGroupLoads)
{
    const Workload w = makeWorkload("BP");
    const auto h = opcodeHistogram(kernelOf(w));
    EXPECT_GT(h.at(Opcode::EX2), 0u); // 2^n loop
    EXPECT_GT(h.at(Opcode::RCP), 0u);
    EXPECT_GT(h.at(Opcode::FFMA), 0u);
    EXPECT_GT(h.at(Opcode::SHR), 0u); // group index tid>>4
}

TEST(WorkloadStructure, MqUsesSinCos)
{
    const auto h = opcodeHistogram(kernelOf(makeWorkload("MQ")));
    EXPECT_GT(h.at(Opcode::SIN), 0u);
    EXPECT_GT(h.at(Opcode::COS), 0u);
    EXPECT_GT(h.at(Opcode::RSQ), 0u); // scalar SFU prefactor
}

TEST(WorkloadStructure, LcUsesIntegerDivide)
{
    const auto h = opcodeHistogram(kernelOf(makeWorkload("LC")));
    EXPECT_GT(h.at(Opcode::IDIV), 0u);
    EXPECT_GT(h.at(Opcode::SQRT), 0u);
}

TEST(WorkloadStructure, PfUsesSharedMemoryAndBarriers)
{
    const Workload w = makeWorkload("PF");
    const Kernel &k = kernelOf(w);
    const auto h = opcodeHistogram(k);
    EXPECT_GT(h.at(Opcode::LDS), 0u);
    EXPECT_GT(h.at(Opcode::STS), 0u);
    EXPECT_GE(h.at(Opcode::BAR), 2u);
    EXPECT_GT(k.sharedBytes, 0u);
}

TEST(WorkloadStructure, DivergentBenchmarksHaveBranches)
{
    for (const char *name : {"BT", "HW", "HS", "CC", "LBM", "SAD",
                             "ACF", "MG", "MV", "SR1", "PF"}) {
        const Workload w = makeWorkload(name);
        const auto h = opcodeHistogram(kernelOf(w));
        EXPECT_GT(h.count(Opcode::BRA), 0u) << name;
    }
}

TEST(WorkloadStructure, NonDivergentBenchmarksBranchOnlyForLoops)
{
    // MM/MQ/ST/SR2/BP/LC branch only via uniform counted loops: every
    // BRA predicate must be statically uniform.
    for (const char *name : {"MM", "MQ", "ST", "SR2", "BP", "LC"}) {
        const Workload w = makeWorkload(name);
        const Kernel &k = kernelOf(w);
        // All BRA guards must come from ISETPs whose sources trace to
        // loop counters; structurally we just require each BRA to have
        // a guard (counted-loop form) and no ifElse JMP diamonds.
        for (const Instruction &i : k.code) {
            if (i.op == Opcode::BRA) {
                EXPECT_NE(i.guard, kNoPred) << name;
            }
        }
    }
}

TEST(WorkloadStructure, EveryKernelWritesOutput)
{
    for (const Workload &w : makeSuite()) {
        const auto h = opcodeHistogram(kernelOf(w));
        EXPECT_GT(h.at(Opcode::STG), 0u) << w.name;
        EXPECT_GT(h.at(Opcode::LDG), 0u) << w.name;
    }
}

TEST(WorkloadStructure, RegisterFootprintsAllowFullOccupancy)
{
    // Except for LC (deliberately occupancy-starved by its tiny grid),
    // kernels must not be register-limited below 8 CTAs per SM.
    ArchConfig cfg;
    for (const Workload &w : makeSuite()) {
        const Kernel &k = kernelOf(w);
        EXPECT_LE(k.numRegs, 32u) << w.name;
        const unsigned warps = cfg.warpsPerCta(
            w.launches.front().dims.threadsPerCta);
        if (w.name != "LC") {
            EXPECT_GE(cfg.numVregsPerSm / (warps * k.numRegs), 8u)
                << w.name;
        }
    }
}

TEST(WorkloadStructure, GridsCoverAllSms)
{
    for (const Workload &w : makeSuite()) {
        EXPECT_GE(w.launches.front().dims.ctas, 15u) << w.name;
        EXPECT_EQ(w.launches.front().dims.threadsPerCta % 32, 0u)
            << w.name;
    }
}

TEST(WorkloadStructure, ControlDependenceRecorded)
{
    // The static analyses rely on builder-recorded regions; every
    // branchy kernel must carry them.
    for (const char *name : {"HW", "LBM", "SAD", "ACF"}) {
        const Workload w = makeWorkload(name);
        const Kernel &k = kernelOf(w);
        EXPECT_FALSE(k.regions.empty()) << name;
        EXPECT_EQ(k.enclosingPreds.size(), k.code.size()) << name;
    }
}

} // namespace
} // namespace gs
