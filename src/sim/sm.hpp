/**
 * @file
 * One streaming multiprocessor: warp contexts, dual warp schedulers,
 * scoreboards, operand collectors with register-bank arbitration, the
 * ALU/SFU/MEM execution pipelines, an L1 cache, and the compression +
 * scalar-execution machinery of G-Scalar.
 *
 * Functional state (register values, predicates, memory, compression
 * metadata) advances in program order at issue; the event-driven parts
 * (operand collection, pipeline occupancy, write-back) model timing.
 *
 * Quiescence: a tick that makes no progress (no write-back, dispatch,
 * issue, CTA retire or CTA launch) changes nothing but four stall
 * counters and the dispatch cursor, and every later tick repeats it
 * exactly until the SM's next wake event: the earliest write-back due,
 * collector ready or pipe free after that tick. tick() therefore
 * sleeps until then, crediting each skipped cycle the quiet tick's
 * stall counts, and Gpu::launch jumps over cycles in which every SM
 * sleeps. Any new time-dependent predicate in tick()'s phases must be
 * added as a wake event in nextWake(), or the skip becomes wrong.
 * Warps whose scoreboard blocked their next instruction are memoised
 * until one of their packets writes back.
 */

#ifndef GSCALAR_SIM_SM_HPP
#define GSCALAR_SIM_SM_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/events.hpp"
#include "compress/array_model.hpp"
#include "compress/codec.hpp"
#include "functional.hpp"
#include "isa/analysis.hpp"
#include "isa/kernel.hpp"
#include "memory/cache.hpp"
#include "memory/memory_system.hpp"
#include "scalar/eligibility.hpp"
#include "scoreboard.hpp"
#include "trace.hpp"
#include "warp_state.hpp"

namespace gs
{

/** Hands out CTA ids of the running grid to SMs. */
class CtaDispatcher
{
  public:
    explicit CtaDispatcher(unsigned total) : total_(total) {}

    std::optional<unsigned>
    fetch()
    {
        if (next_ >= total_)
            return std::nullopt;
        return next_++;
    }

    bool exhausted() const { return next_ >= total_; }

  private:
    unsigned next_ = 0;
    unsigned total_;
};

/** One streaming multiprocessor. */
class Sm
{
  public:
    Sm(const ArchConfig &cfg, unsigned sm_id, const Kernel &kernel,
       const KernelAnalysis &analysis, LaunchDims dims,
       GlobalMemory &gmem, MemorySystem &memsys,
       CtaDispatcher &dispatcher, Tracer *tracer = nullptr);

    /** Advance one core cycle; a sleeping SM only credits the cycle
     *  its quiet tick's stall counts (see the file comment). */
    void tick(Cycle now);

    /** First cycle whose tick() must run the phases again: now + 1
     *  after a tick that made progress, kNoWake when no event is
     *  pending. Every cycle before it would repeat the last quiet tick. */
    Cycle wakeAt() const { return wakeAt_; }

    /** Credit @p n sleeping cycles in bulk, exactly as @p n calls of
     *  tick() before wakeAt() would. */
    void skipQuiet(Cycle n);

    /** Host work: issueWarp() calls (scoreboard/collector checks). */
    std::uint64_t issueAttempts() const { return issueAttempts_; }

    /** Host work: cycles credited without running the phases. */
    std::uint64_t ticksSkipped() const { return ticksSkipped_; }

    static constexpr Cycle kNoWake = ~Cycle{0};

    // ---- phase entry points for deterministic parallel ticking ------------
    // The parallel driver (sim/parallel.cpp) replays tick()'s phases
    // across threads: writeback and issue/retire run concurrently
    // (SM-local state only), dispatch and commit/launch run in an
    // SM-ordered rolling handoff so the MemorySystem, GlobalMemory and
    // CtaDispatcher see accesses in exactly the serial order.

    /** Phase P1 (parallel): retire written-back packets. */
    void phaseWriteback(Cycle now) { writeback(now); }

    /** Phase P2 (SM-ordered): dispatch collectors, touching the shared
     *  MemorySystem in serial SM order. */
    void phaseDispatch(Cycle now) { dispatchReady(now); }

    /** Phase P3 (parallel): issue + retire CTAs; global-memory stores
     *  go to the per-SM write log (deferred mode). */
    void phaseIssueRetire(Cycle now)
    {
        scheduleIssue(now);
        retireCtas(now);
    }

    /** Phase P4 (SM-ordered): commit the write log in serial WAW
     *  order, then fetch at most one CTA, then count the cycle. */
    void phaseCommitLaunch(Cycle now)
    {
        gtxn_.commit();
        tryLaunchCtas(now);
        ++ev_.cycles;
    }

    /** Buffer global-memory stores per cycle (parallel ticking). */
    void setDeferredGmem(bool on) { gtxn_.setDeferred(on); }

    /** This SM's global-memory view (parallel driver: logs + commit). */
    const GmemTxn &gmemTxn() const { return gtxn_; }

    /** No resident CTAs, none fetchable, and no in-flight work. */
    bool idle() const;

    EventCounts &events() { return ev_; }
    const EventCounts &events() const { return ev_; }

    /** Warps currently resident (tests). */
    unsigned residentWarps() const;

  private:
    // ---- structures -------------------------------------------------------
    struct CtaSlot
    {
        bool active = false;
        unsigned ctaId = 0;
        unsigned warpBase = 0;  ///< first warp context index
        unsigned numWarps = 0;
        unsigned barrierArrived = 0;
        std::vector<Word> shared;
    };

    /** An instruction in flight between issue and write-back. */
    struct InFlight
    {
        bool used = false;
        unsigned warp = 0;
        Instruction inst;
        LaneMask mask = 0;
        bool isSmov = false;

        /** When the last scheduled bank read completes (+pipe depth). */
        Cycle collectDone = 0;

        // execution
        bool dispatched = false;
        Cycle wbAt = 0;
        bool execScalar = false;
        unsigned scalarGroupMask = 0;

        // memory operation payload (coalesced line addresses)
        std::vector<Addr> memLines;
        bool isStore = false;
        bool isShared = false;
        /** Worst-bank serialisation degree of a shared access. */
        unsigned sharedConflictDegree = 1;
    };

    struct Pipe
    {
        Cycle freeAt = 0;
    };

    /** The counters a quiet tick moves, per quiet tick. */
    struct StallCounts
    {
        std::uint64_t scoreboard = 0, schedIdle = 0, ocFull = 0,
                      pipeBusy = 0;
    };

    // ---- phases of tick(); each returns whether it made progress -----------
    bool tryLaunchCtas(Cycle now);
    bool scheduleIssue(Cycle now);
    bool dispatchReady(Cycle now);
    bool writeback(Cycle now);
    bool retireCtas(Cycle now);

    StallCounts stallCounts() const;
    /** Earliest write-back, collector-ready or pipe-free cycle after
     *  @p now; kNoWake when there is none. */
    Cycle nextWake(Cycle now) const;

    // ---- issue helpers -------------------------------------------------------
    /** Attempt to issue from @p warp; true on success. */
    bool issueWarp(unsigned warp, Cycle now);
    void executeControl(unsigned warp, const Instruction &inst, Cycle now);
    bool needsSpecialMove(const WarpState &w, const Instruction &inst,
                          LaneMask mask, int pc) const;
    void accountRegRead(const RegMeta &meta, bool reader_divergent,
                        bool scalar_from_bvr);
    void accountRegWrite(const RegMeta &before, const RegMeta &after,
                         bool scalar_to_bvr);
    int bankOf(unsigned warp, RegIdx reg) const;
    unsigned occupancyCycles(const InFlight &f) const;
    Cycle memoryCompletion(InFlight &f, Cycle start);

    // ---- members ----------------------------------------------------------------
    const ArchConfig &cfg_;
    unsigned smId_;
    const Kernel &kernel_;
    const KernelAnalysis &analysis_;
    LaunchDims dims_;
    Tracer *tracer_ = nullptr;
    GlobalMemory &gmem_;
    GmemTxn gtxn_; ///< this SM's (possibly deferred) view of gmem_
    MemorySystem &memsys_;
    CtaDispatcher &dispatcher_;

    RfGeometry geo_;
    unsigned warpsPerCta_;
    unsigned ctaCapacity_;
    unsigned maxWarps_;

    /** The RF compression scheme the byte-mask modes run through. */
    const compress::Codec *codec_;
    compress::CodecCaps codecCaps_; ///< caps(), cached off the hot path

    // rf:stuck-array permanent faults (fault/fault.hpp). The stuck set
    // is fixed at construction; a codec advertising absorbsStuckFaults
    // redirects affected registers into the spare capacity compression
    // frees, counted once per (warp slot, register) in the health
    // counters — EventCounts never see the fault, so absorbed runs
    // stay byte-identical.
    std::vector<unsigned> stuckArraysPerBank_;
    unsigned stuckArraysTotal_ = 0;
    std::vector<bool> rfRedirected_; ///< (warp, reg) already counted

    std::vector<CtaSlot> slots_;
    std::vector<WarpState> warps_;
    std::vector<Scoreboard> boards_;
    std::vector<unsigned> warpInFlight_; ///< packets not yet written back
    /** Scoreboard blocked the warp's next instruction; nothing can
     *  change that until one of its packets writes back. */
    std::vector<std::uint8_t> sbBlocked_;

    std::vector<InFlight> oc_;      ///< operand collectors
    std::vector<InFlight> wbQueue_; ///< dispatched, awaiting write-back
    unsigned ocRotate_ = 0;         ///< dispatch round-robin cursor

    std::vector<Cycle> bankFreeAt_;       ///< one read port per bank
    std::vector<Cycle> scalarBankFreeAt_; ///< prior-work scalar RF ports

    Pipe alu0_, alu1_, sfu_, mem_;
    Cache l1_;
    Cycle l1PortFreeAt_ = 0;
    std::vector<Cycle> l1Mshr_; ///< outstanding-miss completion times

    std::vector<unsigned> greedyWarp_; ///< per-scheduler GTO favourite
    std::vector<unsigned> rrCursor_;   ///< per-scheduler LRR cursor

    EventCounts ev_;

    // quiescence (see the file comment)
    Cycle wakeAt_ = 0;
    StallCounts quiet_; ///< per-cycle stall counts while asleep
    std::uint64_t issueAttempts_ = 0;
    std::uint64_t ticksSkipped_ = 0;
};

} // namespace gs

#endif // GSCALAR_SIM_SM_HPP
