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
 * collector ready or pipe free after that tick. The SM therefore
 * sleeps until then (wakeAt()). Gpu::launch never calls a sleeping SM:
 * it credits the slept cycles with skipQuiet() (the quiet tick's stall
 * counts per cycle) just before the SM's next tick and at the end of
 * the launch, and jumps over cycles in which every SM sleeps. A
 * sleeping SM's state, idle() and wakeAt() are frozen until it wakes.
 * Any new time-dependent predicate in tick()'s phases must be added as
 * a wake event in nextWake(), or the skip becomes wrong.
 *
 * Issuable sets and memos: an awake tick visits only warps and
 * collectors that can change something.
 *  - live_ (resident, not done, not at a barrier) is set at CTA launch
 *    and barrier release and cleared at BAR arrival and EXIT. Any new
 *    way of making a warp issuable or not issuable must update it.
 *  - sbBlocked_ holds warps whose next instruction failed the
 *    scoreboard; a write-back of the warp re-checks it, since
 *    readiness only improves at write-back.
 *  - ocFull_ holds warps whose next instruction passed the scoreboard
 *    and found every collector busy; collectors never free during the
 *    issue phase, so while none is free such a warp only counts an
 *    oc-full stall.
 *  - Collectors sit in one free, pending or per-pipe-class ready set;
 *    dispatch takes ready collectors in cursor order and counts the
 *    rest as pipe-busy stalls. Write-backs wait in a min-heap.
 * Scheduler walks and stall counts are exactly those of a scan over
 * every warp slot and collector.
 */

#ifndef GSCALAR_SIM_SM_HPP
#define GSCALAR_SIM_SM_HPP

#include <array>
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
#include "slot_set.hpp"
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

    /** Run one core cycle's phases. Only for an awake SM (now >=
     *  wakeAt()) whose earlier cycles are all counted (events().cycles
     *  == now): the caller credits sleeping cycles with skipQuiet(). */
    void tick(Cycle now);

    /** Run one cycle's phases and count the cycle, whether or not the
     *  SM would sleep, and touch no quiescence state; true when a
     *  phase made progress. tick() is this plus the sleep bookkeeping;
     *  alone it is the every-cycle reference loop
     *  (setEveryCycleReference) that tick() and skipQuiet() must
     *  reproduce. */
    bool tickEveryCycle(Cycle now);

    /** First cycle whose tick() must run the phases again: now + 1
     *  after a tick that made progress, kNoWake when no event is
     *  pending. Every cycle before it would repeat the last quiet tick. */
    Cycle wakeAt() const { return wakeAt_; }

    /** Credit @p n sleeping cycles in bulk, exactly as @p n repeats of
     *  the last quiet tick would (any split of n gives the same). */
    void skipQuiet(Cycle n);

    /** Host work: issueWarp() calls (scoreboard/collector checks). */
    std::uint64_t issueAttempts() const { return issueAttempts_; }

    /** Host work: cycles credited without running the phases. */
    std::uint64_t ticksSkipped() const { return ticksSkipped_; }

    /** Host work: tick() calls. */
    std::uint64_t tickCalls() const { return tickCalls_; }

    static constexpr Cycle kNoWake = ~Cycle{0};

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

    /** An operand collector: an instruction between issue and
     *  dispatch. */
    struct Collector
    {
        unsigned warp = 0;
        Instruction inst;

        /** When the last scheduled bank read completes (+pipe depth). */
        Cycle collectDone = 0;
        bool execScalar = false;

        // memory operation payload (coalesced line addresses; the
        // buffer is reused across the collector's packets)
        std::vector<Addr> memLines;
        bool isStore = false;
        bool isShared = false;
        /** Worst-bank serialisation degree of a shared access. */
        unsigned sharedConflictDegree = 1;
    };

    /** A dispatched packet awaiting write-back: what it releases. */
    struct WbEntry
    {
        Cycle wbAt = 0;
        unsigned warp = 0;
        RegIdx dst = kNoReg;    ///< kNoReg: the packet writes no register
        PredIdx pdst = kNoPred; ///< kNoPred: it writes no predicate
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
    /** Issue from the first warp of candidates_ that can, in scheduler
     *  @p s's policy order; true on success. */
    bool issueFromCandidates(unsigned s, Cycle now);
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

    // ---- dispatch helpers ----------------------------------------------------
    /** Move pending collectors whose operands are in by @p now to the
     *  ready sets. */
    void promoteCollected(Cycle now);
    /** Send collector @p c to @p pipe and queue its write-back. */
    void dispatch(unsigned c, Pipe &pipe, Cycle now);
    unsigned occupancyCycles(const Collector &f) const;
    Cycle memoryCompletion(const Collector &f, Cycle start);
    /** Heap order of wbQueue_: earliest write-back on top. */
    struct LaterWb
    {
        bool
        operator()(const WbEntry &a, const WbEntry &b) const
        {
            return a.wbAt > b.wbAt;
        }
    };

    // ---- members ----------------------------------------------------------------
    const ArchConfig &cfg_;
    unsigned smId_;
    const Kernel &kernel_;
    const KernelAnalysis &analysis_;
    LaunchDims dims_;
    Tracer *tracer_ = nullptr;
    GlobalMemory &gmem_;
    GmemTxn gtxn_; ///< this SM's view of gmem_
    MemorySystem &memsys_;
    CtaDispatcher &dispatcher_;

    RfGeometry geo_;
    AccessCost baseRead_;  ///< baselineRead(geo_): every read's cost
    LaneMask fullLanes_;   ///< all cfg_.warpSize lanes
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
    unsigned activeCtas_ = 0; ///< slots_ entries holding a CTA
    std::vector<WarpState> warps_;
    std::vector<Scoreboard> boards_;
    std::vector<unsigned> warpInFlight_; ///< packets not yet written back

    // issuable sets over warp slots (see the file comment)
    SlotSet live_;      ///< resident, not done, not at a barrier
    SlotSet sbBlocked_; ///< next instruction failed the scoreboard
    SlotSet ocFull_;    ///< next instruction found every collector busy
    std::vector<SlotSet> schedWarps_; ///< per scheduler: its warp slots
    SlotSet candidates_; ///< scratch: live & ~sbBlocked & one scheduler

    std::vector<Collector> oc_; ///< operand collectors
    SlotSet ocFree_;    ///< collectors holding no instruction
    unsigned freeCollectors_ = 0;
    SlotSet ocPending_; ///< collecting operands until their collectDone
    /** Operands collected, waiting for a pipe; one set per pipe class
     *  (ALU, SFU, MEM). */
    std::array<SlotSet, 3> ocReady_;
    Cycle nextCollectDone_ = kNoWake; ///< earliest collectDone pending
    unsigned ocRotate_ = 0; ///< dispatch round-robin cursor

    std::vector<WbEntry> wbQueue_; ///< min-heap on wbAt (LaterWb)
    /** This tick saw an EXIT or a finished warp's last write-back, the
     *  only events that can complete a CTA. */
    bool retireDue_ = false;

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
    std::uint64_t tickCalls_ = 0;
};

} // namespace gs

#endif // GSCALAR_SIM_SM_HPP
