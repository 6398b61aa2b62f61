/**
 * @file
 * The event-driven SM core (sim/sm.hpp, "Quiescence"): sleeping SMs and
 * the global cycle jump in Gpu::launch must give exactly the counters
 * and memory image that ticking every cycle gives. The every-cycle
 * reference loop (setEveryCycleReference) is the oracle here; two test
 * names still call it "Threaded". The host-work counters (SimWork)
 * are deterministic and ratcheted.
 */

#include <gtest/gtest.h>

#include <chrono>

#include "common/log.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "isa/kernel_builder.hpp"
#include "sim/gpu.hpp"
#include "workloads/workload.hpp"

namespace gs
{
namespace
{

/** Launches in this scope run the every-cycle reference loop. */
struct EveryCycleScope
{
    EveryCycleScope() { setEveryCycleReference(true); }
    ~EveryCycleScope() { setEveryCycleReference(false); }
};

/** out[gtid] = gtid + 7: every thread stores a distinct word, so the
 *  memory image is a full fingerprint of the execution. */
Kernel
gridKernel()
{
    KernelBuilder kb("quiescence-grid");
    const Reg tid = kb.reg();
    const Reg ctaid = kb.reg();
    const Reg ntid = kb.reg();
    const Reg gtid = kb.reg();
    kb.s2r(tid, SReg::Tid);
    kb.s2r(ctaid, SReg::CtaId);
    kb.s2r(ntid, SReg::NTid);
    kb.imad(gtid, ctaid, ntid, tid);
    const Reg v = kb.reg();
    kb.iaddi(v, gtid, 7);
    const Reg addr = kb.reg();
    kb.shli(addr, gtid, 2);
    kb.iaddi(addr, addr, 0x100000);
    kb.stg(addr, v);
    return kb.build();
}

/** Warp 0 of every CTA EXITs; the others wait at a BAR it never
 *  reaches, so the grid deadlocks and only the watchdog ends it. */
Workload
deadlockWorkload()
{
    KernelBuilder kb("deadlock");
    const Reg wid = kb.reg();
    const Pred first = kb.pred();
    kb.s2r(wid, SReg::WarpId);
    kb.isetpi(first, CmpOp::EQ, wid, 0);
    kb.ifNotThen(first, [&] { kb.bar(); });
    Workload w;
    w.name = "deadlock";
    w.launches.push_back({kb.build(), {2, 64}});
    return w;
}

ArchConfig
deadlockConfig(Cycle max_cycles)
{
    ArchConfig cfg;
    cfg.numSms = 2;
    cfg.maxCycles = max_cycles;
    return cfg;
}

TEST(Quiescence, DeadlockReachesWatchdogWithExtrapolatedCounters)
{
    setQuiet(true);
    const Workload w = deadlockWorkload();
    const Cycle kFull = ArchConfig{}.maxCycles;
    const Cycle kShort = 100'000, kStep = 1'000;

    // Ticking oracle: counters at two watchdog limits, both well past
    // the point where the grid has settled into its deadlock.
    RunResult lo, hi;
    {
        EveryCycleScope reference;
        lo = runWorkload(w, deadlockConfig(kShort));
        hi = runWorkload(w, deadlockConfig(kShort + kStep));
    }

    Gpu gpu(deadlockConfig(kFull));
    const auto t0 = std::chrono::steady_clock::now();
    const EventCounts ev = gpu.launch(w.launches[0].kernel,
                                      w.launches[0].dims);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    EXPECT_EQ(ev.cycles, kFull);
    // Per-cycle rates of the deadlock, extrapolated to the full limit.
    auto extrapolate = [&](std::uint64_t EventCounts::*f) {
        const std::uint64_t rate = (hi.ev.*f - lo.ev.*f) / kStep;
        EXPECT_EQ((hi.ev.*f - lo.ev.*f) % kStep, 0u);
        return lo.ev.*f + rate * (kFull - kShort);
    };
    EXPECT_GT(hi.ev.schedIdleCycles, lo.ev.schedIdleCycles);
    EXPECT_EQ(ev.schedIdleCycles, extrapolate(&EventCounts::schedIdleCycles));
    EXPECT_EQ(ev.scoreboardStalls,
              extrapolate(&EventCounts::scoreboardStalls));
    EXPECT_EQ(ev.ocFullStalls, extrapolate(&EventCounts::ocFullStalls));
    EXPECT_EQ(ev.pipeBusyStalls, extrapolate(&EventCounts::pipeBusyStalls));
    EXPECT_EQ(ev.warpInsts, lo.ev.warpInsts);

    // O(1) in the watchdog limit: a handful of ticks ran, the rest
    // were credited in one jump.
    const SimWork &work = gpu.lastLaunchWork();
    EXPECT_EQ(work.smTicks, kFull * 2);
    EXPECT_LT(work.smTicksSimulated(), 1000u);
    // Wall time is reported, never asserted (ticking 200M cycles
    // would take minutes; the tick count above is the gate).
    RecordProperty("serial_launch_ms", std::to_string(secs * 1e3));
}

TEST(Quiescence, DeadlockSerialMatchesThreadedAtWatchdog)
{
    setQuiet(true);
    const Workload w = deadlockWorkload();
    const ArchConfig cfg = deadlockConfig(100'000);

    const RunResult serial = runWorkload(w, cfg);
    EveryCycleScope reference;
    const RunResult ticked = runWorkload(w, cfg);
    EXPECT_EQ(serial.ev.cycles, 100'000u);
    EXPECT_EQ(csvRow(serial), csvRow(ticked));
}

// CounterFixture compares the two loops on the suite in GTO order and
// on LRR for four workloads; LRR's cursor and stall counts must also
// stay exact on these.
TEST(Quiescence, LrrSerialMatchesThreaded)
{
    setQuiet(true);
    ArchConfig cfg;
    cfg.mode = ArchMode::GScalarFull;
    cfg.schedPolicy = SchedPolicy::LooseRoundRobin;
    for (const char *name : {"LC", "SR2"}) {
        const std::string serial = csvRow(runWorkload(name, cfg));
        EveryCycleScope reference;
        EXPECT_EQ(serial, csvRow(runWorkload(name, cfg))) << name;
    }
}

TEST(Quiescence, ReferenceMatchesSerialMemoryAndCounters)
{
    setQuiet(true);
    ArchConfig cfg;
    cfg.numSms = 4;

    Gpu serial(cfg);
    const EventCounts ref = serial.launch(gridKernel(), {20, 96});

    EveryCycleScope reference;
    Gpu ticked(cfg);
    const EventCounts got = ticked.launch(gridKernel(), {20, 96});
    EXPECT_EQ(ref.cycles, got.cycles);
    EXPECT_EQ(ref.warpInsts, got.warpInsts);
    EXPECT_EQ(ref.threadInsts, got.threadInsts);
    for (unsigned g = 0; g < 20 * 96; ++g)
        ASSERT_EQ(serial.memory().readWord(0x100000 + 4 * g),
                  ticked.memory().readWord(0x100000 + 4 * g))
            << "gtid " << g;
    // No SM sleeps in the reference loop.
    EXPECT_EQ(ticked.lastLaunchWork().smTicksSkipped, 0u);
    EXPECT_EQ(ticked.lastLaunchWork().smTicks, 4 * got.cycles);
}

TEST(Quiescence, WatchdogReportsExactlyMaxCycles)
{
    setQuiet(true);
    ArchConfig cfg;
    cfg.numSms = 4;
    cfg.maxCycles = 50; // far too few for the grid: watchdog fires

    Gpu serial(cfg);
    EXPECT_EQ(serial.launch(gridKernel(), {20, 96}).cycles, 50u);

    EveryCycleScope reference;
    Gpu ticked(cfg);
    EXPECT_EQ(ticked.launch(gridKernel(), {20, 96}).cycles, 50u);
    EXPECT_EQ(ticked.lastLaunchWork().smTicks, 4 * 50u);
}

void
addWork(SimWork &sum, const SimWork &w)
{
    sum.smTicks += w.smTicks;
    sum.smTicksSkipped += w.smTicksSkipped;
    sum.issueAttempts += w.issueAttempts;
    sum.smTickCalls += w.smTickCalls;
}

/** Run every launch of @p name serially; its summed host work and
 *  counters. */
SimWork
launchWork(const std::string &name, const ArchConfig &cfg,
           EventCounts &ev)
{
    const Workload w = makeWorkload(name);
    Gpu gpu(cfg);
    if (w.setup)
        w.setup(gpu.memory(), cfg.seed);
    SimWork sum;
    for (const WorkloadLaunch &l : w.launches) {
        ev += gpu.launch(l.kernel, l.dims);
        addWork(sum, gpu.lastLaunchWork());
    }
    return sum;
}

// Ratchet on the host work of the suite's MV input in baseline mode.
// MV spends most SM cycles waiting on memory; before quiescence every
// one of them was ticked with about 20 issue checks. Lower these
// bounds when a change does less work; never raise them.
constexpr double kMvIssueAttemptsPerSmCycle = 0.057; // measured 0.0564

TEST(Quiescence, MvHostWorkRatchet)
{
    setQuiet(true);
    EventCounts ev;
    const SimWork sum = launchWork("MV", ArchConfig{}, ev);
    ASSERT_GT(sum.smTicks, 0u);
    const double skipped = double(sum.smTicksSkipped) / sum.smTicks;
    const double attempts = double(sum.issueAttempts) / sum.smTicks;
    RecordProperty("skipped_frac", std::to_string(skipped));
    RecordProperty("issue_attempts_per_sm_cycle", std::to_string(attempts));
    EXPECT_GE(skipped, 0.80);
    EXPECT_LE(attempts, kMvIssueAttemptsPerSmCycle);
}

// Suite-wide ratchet: issue checks (Sm::issueWarp calls) per issued
// warp instruction over all 17 workloads in baseline mode at the
// suite's input seed. The issuable-warp sets and the collector-full
// memo skip warps that cannot issue; lower this bound when a change
// does less work, never raise it. Gpu::launch calls Sm::tick only on
// an awake SM, so every call runs the phases.
constexpr double kSuiteIssueAttemptsPerIssuedInst = 1.632; // measured 1.6318

TEST(Quiescence, SuiteHostWorkRatchet)
{
    setQuiet(true);
    EventCounts ev;
    SimWork total;
    for (const std::string &name : workloadNames())
        addWork(total, launchWork(name, ArchConfig{}, ev));
    ASSERT_GT(ev.issuedInsts, 0u);
    const std::uint64_t attempts = total.issueAttempts;
    const double per_inst = double(attempts) / double(ev.issuedInsts);
    RecordProperty("sm_ticks", std::to_string(total.smTicks));
    RecordProperty("sm_ticks_skipped", std::to_string(total.smTicksSkipped));
    RecordProperty("sm_tick_calls", std::to_string(total.smTickCalls));
    RecordProperty("issue_attempts", std::to_string(attempts));
    RecordProperty("issued_insts", std::to_string(ev.issuedInsts));
    RecordProperty("issue_attempts_per_issued_inst",
                   std::to_string(per_inst));
    EXPECT_LE(per_inst, kSuiteIssueAttemptsPerIssuedInst);
    EXPECT_EQ(total.smTickCalls, total.smTicksSimulated());
}

} // namespace
} // namespace gs
