/**
 * @file
 * Benchmark-suite regression tests: every Table 2 workload builds,
 * validates and runs, and the calibrated per-benchmark characteristics
 * the paper calls out stay in band.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "common/log.hpp"
#include "harness/runner.hpp"

namespace gs
{
namespace
{

/** Small-but-faithful config so the full suite stays fast in tests. */
ArchConfig
testConfig(ArchMode mode = ArchMode::Baseline)
{
    ArchConfig cfg;
    cfg.mode = mode;
    return cfg;
}

/** One shared run of the suite (expensive); computed once. */
const std::map<std::string, EventCounts> &
suiteRuns()
{
    static const std::map<std::string, EventCounts> runs = [] {
        setQuiet(true);
        std::map<std::string, EventCounts> out;
        for (const Workload &w : makeSuite())
            out.emplace(w.name, runWorkload(w, testConfig()).ev);
        return out;
    }();
    return runs;
}

double
frac(EventCounts::u64 num, EventCounts::u64 den)
{
    return den ? double(num) / double(den) : 0.0;
}

TEST(Workloads, SuiteHasAllSeventeenBenchmarks)
{
    const auto suite = makeSuite();
    ASSERT_EQ(suite.size(), 17u);
    EXPECT_EQ(workloadNames().size(), 17u);
    for (std::size_t i = 0; i < suite.size(); ++i)
        EXPECT_EQ(suite[i].name, workloadNames()[i]);
}

TEST(Workloads, KernelsValidateAndDeclareSuites)
{
    for (const Workload &w : makeSuite()) {
        ASSERT_FALSE(w.launches.empty()) << w.name;
        for (const auto &l : w.launches) {
            l.kernel.validate();
            EXPECT_GT(l.dims.ctas, 0u);
        }
        EXPECT_TRUE(w.suite == "rodinia" || w.suite == "parboil")
            << w.name;
        EXPECT_FALSE(w.fullName.empty());
    }
}

TEST(Workloads, LookupByName)
{
    EXPECT_EQ(makeWorkload("BP").fullName, "backprop");
    EXPECT_EQ(makeWorkload("LBM").suite, "parboil");
}

/** Whether two set-ups wrote the same pages with the same bytes. */
void
expectSameMemory(GlobalMemory &a, GlobalMemory &b, const std::string &name)
{
    // Every workload writes below 16 MB (data_gen.hpp's layout): scan
    // that range page by page and check it holds every page.
    constexpr Addr kTop = Addr{1} << 24;
    std::size_t seen = 0;
    for (Addr addr = 0; addr < kTop; addr += GlobalMemory::kPageBytes) {
        const std::uint8_t *pa = a.pageBytes(addr);
        const std::uint8_t *pb = b.pageBytes(addr);
        ASSERT_EQ(pa == nullptr, pb == nullptr) << name << " page " << addr;
        if (pa == nullptr)
            continue;
        ++seen;
        ASSERT_EQ(std::memcmp(pa, pb, GlobalMemory::kPageBytes), 0)
            << name << " page " << addr;
    }
    EXPECT_EQ(seen, a.pageCount()) << name;
    EXPECT_EQ(seen, b.pageCount()) << name;
}

TEST(Workloads, LookupBuildsTheSuiteEntry)
{
    const std::vector<Workload> suite = makeSuite();
    ASSERT_EQ(suite.size(), workloadNames().size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const Workload &want = suite[i];
        const std::string &name = workloadNames()[i];
        const Workload got = makeWorkload(name);
        EXPECT_EQ(got.name, name);
        EXPECT_EQ(got.name, want.name);
        EXPECT_EQ(got.fullName, want.fullName) << name;
        EXPECT_EQ(got.suite, want.suite) << name;
        ASSERT_EQ(got.launches.size(), want.launches.size()) << name;
        for (std::size_t k = 0; k < got.launches.size(); ++k) {
            const WorkloadLaunch &g = got.launches[k], &w = want.launches[k];
            EXPECT_EQ(g.dims.ctas, w.dims.ctas) << name;
            EXPECT_EQ(g.dims.threadsPerCta, w.dims.threadsPerCta) << name;
            EXPECT_EQ(g.kernel.disassemble(), w.kernel.disassemble())
                << name << " kernel " << k;
        }
        ASSERT_TRUE(got.setup && want.setup) << name;
        GlobalMemory ma, mb;
        got.setup(ma, 7);
        want.setup(mb, 7);
        EXPECT_GT(ma.pageCount(), 0u) << name;
        expectSameMemory(ma, mb, name);
    }
}

TEST(WorkloadsDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(makeWorkload("nope"), ::testing::ExitedWithCode(1),
                "unknown workload");
}

TEST(Workloads, EveryBenchmarkRetiresWork)
{
    for (const auto &[name, ev] : suiteRuns()) {
        EXPECT_GT(ev.warpInsts, 1000u) << name;
        EXPECT_GT(ev.ipc(), 0.1) << name;
    }
}

// ---- calibration regressions against the paper's callouts -----------------

TEST(WorkloadCalibration, NonDivergentBenchmarks)
{
    // Section 5.1 names mri-q, sgemm and spmv-style benchmarks as the
    // non-divergent end of the suite.
    for (const char *name : {"BP", "LC", "MQ", "MM", "SR2", "ST"}) {
        const auto &ev = suiteRuns().at(name);
        EXPECT_LT(frac(ev.divergentWarpInsts, ev.warpInsts), 0.05)
            << name;
    }
}

TEST(WorkloadCalibration, HighlyDivergentBenchmarks)
{
    // Section 4.2: ~50 % of executed instructions divergent in lbm and
    // heartwall.
    for (const char *name : {"HW", "LBM"}) {
        const auto &ev = suiteRuns().at(name);
        EXPECT_GT(frac(ev.divergentWarpInsts, ev.warpInsts), 0.35)
            << name;
    }
}

TEST(WorkloadCalibration, DivergentScalarCallouts)
{
    // Section 5.2: HS, LBM, SAD have 17 %, 30 %, 19 % divergent-scalar
    // instructions; generous +/- bands.
    const auto &runs = suiteRuns();
    EXPECT_NEAR(frac(runs.at("HS").divergentScalarEligible,
                     runs.at("HS").warpInsts),
                0.17, 0.08);
    EXPECT_NEAR(frac(runs.at("LBM").divergentScalarEligible,
                     runs.at("LBM").warpInsts),
                0.30, 0.12);
    EXPECT_NEAR(frac(runs.at("SAD").divergentScalarEligible,
                     runs.at("SAD").warpInsts),
                0.19, 0.08);
}

TEST(WorkloadCalibration, BpIsTheSfuAndHalfScalarShowcase)
{
    // Section 5.3: ~14 % of BP's instructions are SFU, all scalar, and
    // 12 % are half-warp scalar.
    const auto &ev = suiteRuns().at("BP");
    const double sfu = frac(ev.sfuWarpInsts, ev.warpInsts);
    EXPECT_GT(sfu, 0.08);
    EXPECT_LT(sfu, 0.22);
    EXPECT_GT(frac(ev.scalarSfuEligible, ev.sfuWarpInsts), 0.9);
    EXPECT_NEAR(frac(ev.halfScalarEligible, ev.warpInsts), 0.12, 0.06);
}

TEST(WorkloadCalibration, SuiteAverageScalarTiers)
{
    // Fig. 9 averages: ALU-scalar ~22 %, total eligible ~40 %.
    double alu = 0, total = 0;
    for (const auto &[name, ev] : suiteRuns()) {
        alu += frac(ev.scalarAluEligible, ev.warpInsts);
        total += frac(ev.scalarAluEligible + ev.scalarSfuEligible +
                          ev.scalarMemEligible + ev.halfScalarEligible +
                          ev.divergentScalarEligible,
                      ev.warpInsts);
    }
    alu /= double(suiteRuns().size());
    total /= double(suiteRuns().size());
    EXPECT_NEAR(alu, 0.22, 0.07);
    EXPECT_NEAR(total, 0.40, 0.10);
}

TEST(WorkloadCalibration, LbmIsMemoryIntensive)
{
    // Fig. 11 discussion: LBM's gains are capped by memory power.
    const auto &lbm = suiteRuns().at("LBM");
    const auto &bp = suiteRuns().at("BP");
    EXPECT_GT(frac(lbm.dramAccesses, lbm.warpInsts),
              4 * frac(bp.dramAccesses, bp.warpInsts));
}

TEST(WorkloadCalibration, MgAndMvArePartialCompressionBenchmarks)
{
    // Fig. 12 discussion: MG and MV have relatively few scalars but
    // many 3-/2-byte-similar accesses.
    for (const char *name : {"MG", "MV"}) {
        const auto &ev = suiteRuns().at(name);
        const double scalar = frac(ev.rfAccScalar, ev.rfReads);
        const double partial =
            frac(ev.rfAcc3Byte + ev.rfAcc2Byte + ev.rfAcc1Byte,
                 ev.rfReads);
        EXPECT_LT(scalar, 0.30) << name;
        EXPECT_GT(partial, 0.30) << name;
    }
}

TEST(WorkloadCalibration, CompressionRatioNearPaper)
{
    double ours = 0, bdi = 0;
    for (const auto &[name, ev] : suiteRuns()) {
        ours += ev.compressionRatio();
        bdi += ev.bdiCompressionRatio();
    }
    ours /= double(suiteRuns().size());
    bdi /= double(suiteRuns().size());
    EXPECT_NEAR(ours, 2.17, 0.35);
    EXPECT_NEAR(bdi, 2.13, 0.35);
    EXPECT_GT(ours, bdi); // Section 5.3: ours 2.17 vs BDI 2.13
}

} // namespace
} // namespace gs
