#include "sm.hpp"

#include <algorithm>

#include "common/bit_utils.hpp"
#include "common/log.hpp"
#include "compress/byte_mask_codec.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "gpu.hpp"

namespace gs
{

namespace
{

/** Per-SM shared memory capacity (Fermi configures 48 KB). */
constexpr unsigned kSharedBytesPerSm = 48 * 1024;

} // namespace

Sm::Sm(const ArchConfig &cfg, unsigned sm_id, const Kernel &kernel,
       const KernelAnalysis &analysis, LaunchDims dims,
       GlobalMemory &gmem, MemorySystem &memsys,
       CtaDispatcher &dispatcher, Tracer *tracer)
    : cfg_(cfg), smId_(sm_id), kernel_(kernel), analysis_(analysis),
      dims_(dims), tracer_(tracer), gmem_(gmem), gtxn_(gmem),
      memsys_(memsys), dispatcher_(dispatcher),
      geo_{cfg.warpSize, cfg.checkGranularity},
      baseRead_(baselineRead(geo_)), fullLanes_(laneMaskLow(cfg.warpSize)),
      l1_(cfg.l1Bytes, cfg.l1Assoc, cfg.lineBytes)
{
    warpsPerCta_ = cfg.warpsPerCta(dims.threadsPerCta);

    unsigned cap = cfg.maxCtasPerSm;
    cap = std::min(cap, cfg.maxThreadsPerSm / (warpsPerCta_ * cfg.warpSize));
    if (kernel.numRegs > 0) {
        const unsigned by_regs =
            cfg.numVregsPerSm / (warpsPerCta_ * kernel.numRegs);
        cap = std::min(cap, by_regs);
    }
    if (kernel.sharedBytes > 0)
        cap = std::min(cap, kSharedBytesPerSm / kernel.sharedBytes);
    if (cap == 0)
        throw LaunchDoesNotFit(detail::formatMsg(
            "kernel '", kernel.name,
            "' does not fit on an SM (regs/threads/shared)"));
    ctaCapacity_ = cap;
    maxWarps_ = ctaCapacity_ * warpsPerCta_;

    codec_ = &compress::codecFor(cfg.codec);
    codecCaps_ = codec_->caps();

    // rf:stuck-array manufacturing faults: the stuck set is a pure
    // hash of (seed, SM, bank, array), fixed before the first cycle
    // and identical at any --jobs.
    stuckArraysPerBank_.assign(cfg.numBanks, 0);
    for (unsigned b = 0; b < cfg.numBanks; ++b) {
        for (unsigned a = 0; a < geo_.byteArrays(); ++a) {
            if (stuckArrayFault(smId_, b, a)) {
                ++stuckArraysPerBank_[b];
                ++stuckArraysTotal_;
            }
        }
    }
    if (stuckArraysTotal_ > 0) {
        healthCounters().rfStuckArrays.fetch_add(
            stuckArraysTotal_, std::memory_order_relaxed);
        if (codecCaps_.absorbsStuckFaults && kernel.numRegs > 0)
            rfRedirected_.assign(
                std::size_t(maxWarps_) * unsigned(kernel.numRegs), false);
    }

    slots_.resize(ctaCapacity_);
    warps_.resize(maxWarps_);
    boards_.resize(maxWarps_);
    warpInFlight_.assign(maxWarps_, 0);
    for (SlotSet *set : {&live_, &sbBlocked_, &ocFull_, &candidates_})
        set->resize(maxWarps_);
    schedWarps_.resize(cfg.numSchedulers);
    for (SlotSet &mine : schedWarps_)
        mine.resize(maxWarps_);
    for (unsigned w = 0; w < maxWarps_; ++w)
        schedWarps_[w % cfg.numSchedulers].set(w);

    oc_.resize(cfg.numCollectors);
    for (SlotSet *set : {&ocFree_, &ocPending_, &ocReady_[0], &ocReady_[1],
                         &ocReady_[2]})
        set->resize(cfg.numCollectors);
    for (unsigned c = 0; c < cfg.numCollectors; ++c)
        ocFree_.set(c);
    freeCollectors_ = cfg.numCollectors;
    bankFreeAt_.assign(cfg.numBanks, 0);
    scalarBankFreeAt_.assign(cfg.scalarRfBanks, 0);
    l1Mshr_.assign(std::max(cfg.l1MshrEntries, 1u), 0);
    greedyWarp_.assign(cfg.numSchedulers, 0);
    rrCursor_.assign(cfg.numSchedulers, 0);
}

unsigned
Sm::residentWarps() const
{
    unsigned n = 0;
    for (const CtaSlot &s : slots_)
        if (s.active)
            n += s.numWarps;
    return n;
}

bool
Sm::idle() const
{
    return dispatcher_.exhausted() && activeCtas_ == 0 &&
           wbQueue_.empty() && freeCollectors_ == oc_.size();
}

void
Sm::tick(Cycle now)
{
    // Gpu::launch credits sleeping cycles lazily and never calls a
    // sleeping SM.
    GS_ASSERT(now >= wakeAt_, "tick of a sleeping SM at ", now);
    ++tickCalls_;
    const StallCounts before = stallCounts();
    if (tickEveryCycle(now)) {
        wakeAt_ = now + 1;
        return;
    }
    // Nothing moved, so nothing else can until a timing event fires:
    // sleep, repeating this tick's stall counts.
    const StallCounts after = stallCounts();
    quiet_ = {after.scoreboard - before.scoreboard,
              after.schedIdle - before.schedIdle,
              after.ocFull - before.ocFull,
              after.pipeBusy - before.pipeBusy};
    wakeAt_ = nextWake(now);
}

bool
Sm::tickEveryCycle(Cycle now)
{
    bool progress = writeback(now);
    progress |= dispatchReady(now);
    progress |= scheduleIssue(now);
    progress |= retireCtas(now);
    progress |= tryLaunchCtas(now);
    ++ev_.cycles;
    return progress;
}

void
Sm::skipQuiet(Cycle n)
{
    ev_.scoreboardStalls += quiet_.scoreboard * n;
    ev_.schedIdleCycles += quiet_.schedIdle * n;
    ev_.ocFullStalls += quiet_.ocFull * n;
    ev_.pipeBusyStalls += quiet_.pipeBusy * n;
    // dispatchReady() advances its cursor on every tick.
    const unsigned oc = unsigned(oc_.size());
    ocRotate_ = unsigned((ocRotate_ + n % oc) % oc);
    ev_.cycles += n;
    ticksSkipped_ += n;
}

Sm::StallCounts
Sm::stallCounts() const
{
    return {ev_.scoreboardStalls, ev_.schedIdleCycles, ev_.ocFullStalls,
            ev_.pipeBusyStalls};
}

Cycle
Sm::nextWake(Cycle now) const
{
    // The only time-dependent predicates of tick()'s phases.
    Cycle wake = kNoWake;
    auto after = [&](Cycle c) {
        if (c > now)
            wake = std::min(wake, c);
    };
    if (!wbQueue_.empty())
        after(wbQueue_.front().wbAt);
    after(nextCollectDone_);
    for (const Pipe *p : {&alu0_, &alu1_, &sfu_, &mem_})
        after(p->freeAt);
    return wake;
}

// --------------------------------------------------------------------------
// CTA lifecycle
// --------------------------------------------------------------------------

bool
Sm::tryLaunchCtas(Cycle)
{
    if (activeCtas_ == ctaCapacity_ || dispatcher_.exhausted())
        return false;
    // At most one CTA per SM per cycle so grids spread round-robin over
    // the SM array instead of piling onto the first SM.
    for (unsigned s = 0; s < ctaCapacity_; ++s) {
        CtaSlot &slot = slots_[s];
        if (slot.active)
            continue;
        const auto cta = dispatcher_.fetch();
        if (!cta)
            return false;

        slot.active = true;
        ++activeCtas_;
        slot.ctaId = *cta;
        if (tracer_)
            tracer_->onCtaLaunch(smId_, *cta, ev_.cycles);
        slot.warpBase = s * warpsPerCta_;
        slot.numWarps = warpsPerCta_;
        slot.barrierArrived = 0;
        slot.shared.assign(std::max(kernel_.sharedBytes / kBytesPerWord,
                                    1u),
                           0);

        unsigned threads_left = dims_.threadsPerCta;
        for (unsigned w = 0; w < warpsPerCta_; ++w) {
            WarpState &ws = warps_[slot.warpBase + w];
            const unsigned lanes = std::min(cfg_.warpSize, threads_left);
            threads_left -= lanes;
            ws.init(kernel_.numRegs, kernel_.numPreds, cfg_.warpSize,
                    lanes);
            ws.ctaSlot = int(s);
            ws.ctaId = *cta;
            ws.warpInCta = w;
            ws.threadBase = w * cfg_.warpSize;
            boards_[slot.warpBase + w].init(kernel_.numRegs,
                                            kernel_.numPreds);
            warpInFlight_[slot.warpBase + w] = 0;
            live_.set(slot.warpBase + w);
            sbBlocked_.reset(slot.warpBase + w);
            ocFull_.reset(slot.warpBase + w);
        }
        return true; // one launch per cycle
    }
    return false;
}

bool
Sm::retireCtas(Cycle)
{
    if (!retireDue_)
        return false;
    retireDue_ = false;
    bool retired = false;
    for (CtaSlot &slot : slots_) {
        if (!slot.active)
            continue;
        bool done = true;
        for (unsigned w = 0; w < slot.numWarps && done; ++w) {
            const unsigned wi = slot.warpBase + w;
            if (!warps_[wi].done() || warpInFlight_[wi] != 0)
                done = false;
        }
        if (done) {
            retired = true;
            slot.active = false;
            --activeCtas_;
            for (unsigned w = 0; w < slot.numWarps; ++w)
                warps_[slot.warpBase + w].ctaSlot = -1;
            if (tracer_)
                tracer_->onCtaRetire(smId_, slot.ctaId, ev_.cycles);
        }
    }
    return retired;
}

// --------------------------------------------------------------------------
// Issue
// --------------------------------------------------------------------------

bool
Sm::scheduleIssue(Cycle now)
{
    bool any_issued = false;
    for (unsigned s = 0; s < cfg_.numSchedulers; ++s) {
        const SlotSet &mine = schedWarps_[s];
        bool saw_live_warp = false;
        bool any_unflagged = false;
        candidates_.assign([&](unsigned k) {
            const std::uint64_t live = live_.word(k) & mine.word(k);
            const std::uint64_t cand = live & ~sbBlocked_.word(k);
            saw_live_warp |= live != 0;
            any_unflagged |= (cand & ~ocFull_.word(k)) != 0;
            return cand;
        });

        bool issued = false;
        if (freeCollectors_ == 0 && !any_unflagged) {
            // Each candidate would only count an oc-full stall again.
            ev_.ocFullStalls += candidates_.count();
        } else {
            issued = issueFromCandidates(s, now);
        }

        if (!issued) {
            if (saw_live_warp)
                ++ev_.scoreboardStalls;
            else
                ++ev_.schedIdleCycles;
        }
        any_issued |= issued;
    }
    return any_issued;
}

bool
Sm::issueFromCandidates(unsigned s, Cycle now)
{
    auto tryWarp = [&](unsigned w) -> bool {
        // Collectors never free during issue: while none is, a warp
        // that found them all busy would find so again.
        if (freeCollectors_ == 0 && ocFull_.test(w)) {
            ++ev_.ocFullStalls;
            return false;
        }
        if (!issueWarp(w, now))
            return false;
        ocFull_.reset(w);
        return true;
    };
    constexpr unsigned kNone = SlotSet::kNone;
    const SlotSet &cand = candidates_;

    if (cfg_.schedPolicy == SchedPolicy::GreedyThenOldest) {
        // The favourite first, then the oldest (lowest) slot.
        const unsigned fav = greedyWarp_[s];
        if (fav < maxWarps_ && cand.test(fav) && tryWarp(fav))
            return true;
        for (unsigned w = cand.next(0); w != kNone; w = cand.next(w + 1)) {
            if (w != fav && tryWarp(w)) {
                greedyWarp_[s] = w;
                return true;
            }
        }
        return false;
    }

    // Loose round-robin over the scheduler's slots s, s + S, s + 2S...:
    // from the cursor's slot to the end, then wrap.
    const unsigned nsched = cfg_.numSchedulers;
    const unsigned count = (maxWarps_ + nsched - 1 - s) / nsched;
    const unsigned start = s + rrCursor_[s] * nsched;
    auto issuedAt = [&](unsigned w) {
        rrCursor_[s] = ((w - s) / nsched + 1) % count;
        return true;
    };
    for (unsigned w = cand.next(start); w != kNone; w = cand.next(w + 1))
        if (tryWarp(w))
            return issuedAt(w);
    for (unsigned w = cand.next(0); w < start; w = cand.next(w + 1))
        if (tryWarp(w))
            return issuedAt(w);
    return false;
}

bool
Sm::needsSpecialMove(const WarpState &w, const Instruction &inst,
                     LaneMask mask, int pc) const
{
    if (!usesByteMaskCompression(cfg_.mode) || !cfg_.insertSpecialMoves ||
        !codecCaps_.insertsSpecialMoves)
        return false;
    if (!inst.writesDst())
        return false;
    if (mask == w.fullMask() || mask == 0)
        return false;
    const RegMeta &m = w.meta(inst.dst);
    // A compressed destination (some bytes not stored) cannot take a
    // partial update in place (§3.3).
    if (!codec_->regCompressed(m))
        return false;
    // Compiler-assisted refinement: no move when the inactive lanes'
    // old value is provably dead.
    if (cfg_.compilerAssistedSmov &&
        std::size_t(pc) < analysis_.oldValueDead.size() &&
        analysis_.oldValueDead[std::size_t(pc)]) {
        return false;
    }
    return true;
}

int
Sm::bankOf(unsigned warp, RegIdx reg) const
{
    return int((unsigned(reg) + warp) % cfg_.numBanks);
}

void
Sm::accountRegRead(const RegMeta &meta, bool reader_divergent,
                   bool scalar_from_bvr)
{
    ++ev_.rfReads;
    const LaneMask full = fullLanes_;
    const bool half_reg = cfg_.halfRegisterCompression;

    // ---- Fig. 8 category (read-time classification) ---------------------
    if (reader_divergent) {
        ++ev_.rfAccDivergent;
    } else if (!meta.valid || meta.divergent) {
        ++ev_.rfAccOther;
    } else {
        switch (meta.fullEnc) {
          case 4: ++ev_.rfAccScalar; break;
          case 3: ++ev_.rfAcc3Byte; break;
          case 2: ++ev_.rfAcc2Byte; break;
          case 1: ++ev_.rfAcc1Byte; break;
          default: ++ev_.rfAccOther; break;
        }
    }

    // ---- shadow accounting: the four RF schemes of Fig. 12 ----------------
    const AccessCost base = baseRead_;
    ev_.shadowBaseArrayReads += base.arrays;

    if (meta.fullScalar())
        ++ev_.shadowScalarRfAccesses;
    else
        ev_.shadowScalarArrayReads += base.arrays;

    const AccessCost ours =
        compressedRead(geo_, meta, full, half_reg, meta.fullScalar());
    ev_.shadowOursArrayReads += ours.arrays;
    ev_.shadowOursBvrAccesses += ours.bvr;
    ev_.shadowOursCrossbarBytes += ours.bytes;

    const AccessCost bdi = bdiRead(geo_, meta, full);
    ev_.bdiArrayReads += bdi.arrays;
    ev_.bdiMetaAccesses += bdi.bvr;

    // ---- actual cost under the configured mode -----------------------------
    AccessCost actual;
    switch (cfg_.mode) {
      case ArchMode::Baseline:
        actual = base;
        break;
      case ArchMode::AluScalar:
        if (meta.fullScalar()) {
            ++ev_.scalarRfAccesses;
            actual.bytes = kBytesPerWord;
        } else {
            actual = base;
        }
        break;
      case ArchMode::WarpedCompression:
        actual = bdi;
        ++ev_.decompressorUses;
        break;
      default: // compression modes: price through the configured codec
        actual = codec_->readCost(geo_, meta, full, half_reg,
                                  scalar_from_bvr);
        ev_.bvrAccesses += actual.bvr;
        if (!scalar_from_bvr)
            ++ev_.decompressorUses;
        break;
    }
    ev_.rfArrayReads += actual.arrays;
    ev_.crossbarBytes += actual.bytes;
}

void
Sm::accountRegWrite(const RegMeta &before, const RegMeta &after,
                    bool scalar_to_bvr)
{
    (void)before;
    ++ev_.rfWrites;
    const LaneMask wmask = after.writeMask;
    const bool half_reg = cfg_.halfRegisterCompression;
    const unsigned reg_bytes = geo_.regBytes();

    if (after.affine) {
        ++ev_.affineWrites;
        if (after.affineStride != 0)
            ++ev_.affineNonScalarWrites;
    }

    // ---- compression-ratio accounting over the write stream ----------------
    ev_.compBytesUncompressed += reg_bytes;
    ev_.compBytesCompressed +=
        codec_->regStoredBytes(geo_, after, half_reg);
    ev_.bdiBytesUncompressed += reg_bytes;
    ev_.bdiBytesCompressed += after.divergent ? reg_bytes : after.bdiBytes;

    // ---- shadow accounting -------------------------------------------------
    const AccessCost base = baselineWrite(geo_, wmask);
    ev_.shadowBaseArrayWrites += base.arrays;

    if (after.fullScalar())
        ++ev_.shadowScalarRfAccesses;
    else
        ev_.shadowScalarArrayWrites += base.arrays;

    const AccessCost ours =
        compressedWrite(geo_, after, half_reg, after.fullScalar());
    ev_.shadowOursArrayWrites += ours.arrays;
    ev_.shadowOursBvrAccesses += ours.bvr;
    ev_.shadowOursCrossbarBytes += ours.bytes;

    const AccessCost bdi = bdiWrite(geo_, after);
    ev_.bdiArrayWrites += bdi.arrays;
    ev_.bdiMetaAccesses += bdi.bvr;

    // ---- actual cost under the configured mode ------------------------------
    AccessCost actual;
    switch (cfg_.mode) {
      case ArchMode::Baseline:
        actual = base;
        break;
      case ArchMode::AluScalar:
        if (after.fullScalar() && scalar_to_bvr) {
            ++ev_.scalarRfAccesses;
            actual.bytes = kBytesPerWord;
        } else {
            actual = base;
        }
        break;
      case ArchMode::WarpedCompression:
        actual = bdi;
        ++ev_.compressorUses;
        break;
      default:
        actual = codec_->writeCost(geo_, after, half_reg, scalar_to_bvr);
        ev_.bvrAccesses += actual.bvr;
        ++ev_.compressorUses; // comparison logic runs on every write-back
        break;
    }
    ev_.rfArrayWrites += actual.arrays;
    ev_.crossbarBytes += actual.bytes;
}

void
Sm::executeControl(unsigned w, const Instruction &inst, Cycle)
{
    WarpState &ws = warps_[w];
    SimtStack &st = ws.stack();
    const int pc = st.pc();
    const LaneMask mask = st.activeMask();

    ++ev_.issuedInsts;
    ++ev_.warpInsts;
    ++ev_.ctrlWarpInsts;
    ev_.threadInsts += popCount(mask);
    if (mask != ws.fullMask())
        ++ev_.divergentWarpInsts;

    if (tracer_) {
        Tracer::IssueEvent te;
        te.smId = smId_;
        te.warp = w;
        te.cycle = ev_.cycles;
        te.pc = pc;
        te.inst = &inst;
        te.mask = mask;
        tracer_->onIssue(te);
    }

    switch (inst.op) {
      case Opcode::BRA: {
        LaneMask taken = mask;
        if (inst.guard != kNoPred) {
            const LaneMask p = ws.pred(inst.guard);
            taken = (inst.guardNeg ? ~p : p) & mask;
        }
        st.branch(taken, inst.target, pc + 1, inst.reconv);
        break;
      }
      case Opcode::JMP:
        st.jump(inst.target);
        break;
      case Opcode::BAR: {
        GS_ASSERT(ws.ctaSlot >= 0, "barrier on idle warp");
        CtaSlot &slot = slots_[unsigned(ws.ctaSlot)];
        ws.atBarrier = true;
        live_.reset(w);
        ++slot.barrierArrived;
        if (slot.barrierArrived == slot.numWarps) {
            slot.barrierArrived = 0;
            for (unsigned i = 0; i < slot.numWarps; ++i) {
                WarpState &peer = warps_[slot.warpBase + i];
                peer.atBarrier = false;
                peer.stack().advance(peer.stack().pc() + 1);
                live_.set(slot.warpBase + i);
            }
        }
        break;
      }
      case Opcode::EXIT:
        st.exit();
        live_.reset(w);
        retireDue_ = true;
        break;
      default:
        GS_PANIC("not a control opcode: ", opcodeName(inst.op));
    }
}

bool
Sm::issueWarp(unsigned w, Cycle now)
{
    WarpState &ws = warps_[w];
    const int pc = ws.stack().pc();
    GS_ASSERT(pc >= 0 && std::size_t(pc) < kernel_.code.size(),
              "pc out of range");
    const Instruction &real = kernel_.code[std::size_t(pc)];
    ++issueAttempts_;

    if (!boards_[w].ready(real)) {
        sbBlocked_.set(w);
        return false;
    }

    // Control flow executes at issue and uses no collector.
    if (real.pipe() == PipeClass::CTRL) {
        executeControl(w, real, now);
        return true;
    }

    // Resolve the active mask (SIMT stack + guard predicate).
    const LaneMask stack_mask = ws.stack().activeMask();
    LaneMask mask = stack_mask;
    if (real.guard != kNoPred) {
        const LaneMask p = ws.pred(real.guard);
        mask = (real.guardNeg ? ~p : p) & stack_mask;
    }

    // Fully predicated-off: retires at issue without touching the RF.
    if (mask == 0) {
        ++ev_.issuedInsts;
        ++ev_.warpInsts;
        ws.stack().advance(pc + 1);
        return true;
    }

    // Both the SMOV and the real instruction need a collector.
    if (freeCollectors_ == 0) {
        ++ev_.ocFullStalls;
        ocFull_.set(w);
        return false;
    }

    // §3.3: a divergent write to a compressed register first needs the
    // special decompress-in-place move.
    const bool smov = needsSpecialMove(ws, real, mask, pc);

    Instruction inst;
    if (smov) {
        inst.op = Opcode::SMOV;
        inst.dst = real.dst;
        inst.src[0] = real.dst;
    } else {
        inst = real;
    }
    const LaneMask exec_mask = smov ? ws.fullMask() : mask;

    // ---- eligibility classification (Figs. 1, 9, 10) ---------------------
    Eligibility elig;
    bool exec_scalar = false;
    bool exec_half = false;
    if (!smov) {
        std::array<RegMeta, 3> srcs{};
        const unsigned nsrc =
            std::min(inst.numSrcRegs(), unsigned(inst.src.size()));
        for (unsigned i = 0; i < nsrc; ++i)
            srcs[i] = ws.meta(inst.src[i]);

        EligibilityContext ctx;
        ctx.active = mask;
        ctx.fullMask = ws.fullMask();
        ctx.granularity = cfg_.checkGranularity;
        ctx.warpSize = cfg_.warpSize;
        ctx.sregUniform =
            inst.op != Opcode::S2R || sregIsUniform(inst.sreg);
        if (inst.psrc != kNoPred) {
            const LaneMask p = ws.pred(inst.psrc);
            ctx.predUniform =
                (p & mask) == 0 || (p & mask) == mask;
            ctx.predUniformGroups = 0;
            const unsigned groups = cfg_.warpSize / cfg_.checkGranularity;
            for (unsigned g = 0; g < groups; ++g) {
                const LaneMask gm = laneMaskLow(cfg_.checkGranularity)
                                    << (g * cfg_.checkGranularity);
                const LaneMask pg = p & gm;
                if (pg == 0 || pg == gm)
                    ctx.predUniformGroups |= 1u << g;
            }
        }

        elig = classifyScalar(inst, {srcs.data(), nsrc}, ctx);
        switch (elig.tier) {
          case ScalarTier::FullAlu: ++ev_.scalarAluEligible; break;
          case ScalarTier::FullSfu: ++ev_.scalarSfuEligible; break;
          case ScalarTier::FullMem: ++ev_.scalarMemEligible; break;
          case ScalarTier::Half: ++ev_.halfScalarEligible; break;
          case ScalarTier::Divergent:
            ++ev_.divergentScalarEligible;
            break;
          case ScalarTier::None: break;
        }

        // The mode says which tiers the pipeline exploits; under the
        // byte-mask modes the codec's capability descriptor additionally
        // gates the tiers whose metadata it actually exposes.
        const bool codec_tier =
            !usesByteMaskCompression(cfg_.mode) ||
            (elig.tier == ScalarTier::Divergent
                 ? codecCaps_.divergentScalar
                 : codecCaps_.fullScalar);
        exec_scalar = elig.tier != ScalarTier::None &&
                      elig.tier != ScalarTier::Half &&
                      tierExploited(elig.tier, cfg_.mode) && codec_tier;
        // Half-warp scalar execution needs the per-half BVR/EBR sets
        // (§4.3's half-register compression).
        exec_half = elig.tier == ScalarTier::Half &&
                    tierExploited(elig.tier, cfg_.mode) &&
                    cfg_.halfRegisterCompression &&
                    (!usesByteMaskCompression(cfg_.mode) ||
                     codecCaps_.halfScalar);
        if (exec_scalar)
            ++ev_.scalarExecuted;
        if (exec_half)
            ++ev_.halfScalarExecuted;
    }

    // ---- functional execution (program order) ------------------------------
    SregContext sctx;
    sctx.ctaId = ws.ctaId;
    sctx.nTid = dims_.threadsPerCta;
    sctx.nCtaId = dims_.ctas;
    sctx.warpId = ws.warpInCta;
    sctx.threadBase = ws.threadBase;

    std::span<Word> shared;
    if (ws.ctaSlot >= 0 && kernel_.sharedBytes > 0)
        shared = std::span<Word>(slots_[unsigned(ws.ctaSlot)].shared);

    const ExecResult res =
        executeFunctional(inst, ws, exec_mask, sctx, gtxn_, shared);

    // ---- bookkeeping ---------------------------------------------------------
    ++ev_.issuedInsts;
    const unsigned lanes = popCount(exec_mask);
    if (smov) {
        ++ev_.specialMoveInsts;
    } else {
        ++ev_.warpInsts;
        ev_.threadInsts += lanes;
        if (std::size_t(pc) < analysis_.staticScalar.size() &&
            analysis_.staticScalar[std::size_t(pc)]) {
            ++ev_.staticScalarInsts;
        }
        const bool divergent = mask != ws.fullMask();
        if (divergent)
            ++ev_.divergentWarpInsts;

        // Lanes that actually burn execution energy: one for scalar
        // execution, one per scalar check group for half-warp scalar
        // execution (§4.3, clock-gating all other lanes), all active
        // lanes otherwise.
        unsigned active_lanes = lanes;
        if (exec_scalar) {
            active_lanes = 1;
        } else if (exec_half) {
            active_lanes = 0;
            const unsigned groups = cfg_.warpSize / cfg_.checkGranularity;
            for (unsigned g = 0; g < groups; ++g) {
                active_lanes += (elig.scalarGroupMask & (1u << g))
                                    ? 1u
                                    : cfg_.checkGranularity;
            }
        }

        const double eu = traits(inst.op).energyUnits;
        switch (inst.pipe()) {
          case PipeClass::ALU:
            ++ev_.aluWarpInsts;
            ev_.aluLaneOps += active_lanes;
            ev_.aluEnergyUnits += eu * active_lanes;
            break;
          case PipeClass::SFU:
            ++ev_.sfuWarpInsts;
            ev_.sfuLaneOps += active_lanes;
            ev_.sfuEnergyUnits += eu * active_lanes;
            break;
          case PipeClass::MEM:
            ++ev_.memWarpInsts;
            ev_.memLaneOps += active_lanes;
            break;
          case PipeClass::CTRL:
            break;
        }
    }

    // ---- register read accounting + bank timing -----------------------------
    ++ev_.ocAllocations;
    Cycle last_grant = now + 1;
    const bool reader_divergent = !smov && mask != ws.fullMask();
    const unsigned nsrc = inst.numSrcRegs();
    for (unsigned i = 0; i < nsrc; ++i) {
        const RegMeta &m = ws.meta(inst.src[i]);
        const bool from_bvr = exec_scalar && !smov &&
                              elig.tier != ScalarTier::Divergent &&
                              usesByteMaskCompression(cfg_.mode) &&
                              codecCaps_.scalarFromMeta &&
                              codec_->regScalar(m);
        accountRegRead(m, reader_divergent, from_bvr);

        if (from_bvr)
            continue; // BVR banklets: no main-port contention (§4.1)

        if (cfg_.mode == ArchMode::AluScalar && m.fullScalar()) {
            // Single-bank scalar RF: the §4.1 bottleneck.
            auto it = std::min_element(scalarBankFreeAt_.begin(),
                                       scalarBankFreeAt_.end());
            const Cycle grant = std::max(*it, now) + 1;
            if (*it > now)
                ev_.scalarBankStalls += unsigned(*it - now);
            *it = grant;
            last_grant = std::max(last_grant, grant);
            continue;
        }

        const int bank = bankOf(w, inst.src[i]);
        Cycle &free_at = bankFreeAt_[unsigned(bank)];
        const Cycle grant = std::max(free_at, now) + 1;
        free_at = grant;
        last_grant = std::max(last_grant, grant);
    }

    // ---- destination write (functional now, energy accounted now) ----------
    if (inst.writesDst()) {
        const RegMeta before = ws.meta(inst.dst);
        auto dstvals = ws.regValues(inst.dst);
        // res.dst is defined in the written lanes only.
        if (res.writeMask == fullLanes_) {
            std::copy_n(res.dst.begin(), dstvals.size(), dstvals.begin());
        } else {
            for (LaneMask m = res.writeMask & fullLanes_; m != 0;
                 m &= m - 1) {
                const unsigned lane = firstLane(m);
                dstvals[lane] = res.dst[lane];
            }
        }

        RegMeta after = analyzeWrite(dstvals, res.writeMask, ws.fullMask(),
                                     cfg_.checkGranularity);
        if (smov) {
            // Stored raw after the special move; the imminent divergent
            // write will set D properly. Mark raw via the D bit.
            after.divergent = true;
        }
        // Carry codec-private metadata (the static-profile frozen
        // encoding) across the write before pricing it.
        codec_->updateMeta(before, after);
        const bool to_bvr = exec_scalar && !smov &&
                            elig.tier != ScalarTier::Divergent &&
                            usesByteMaskCompression(cfg_.mode) &&
                            codecCaps_.scalarFromMeta &&
                            codec_->regScalar(after);
        const bool scalar_rf_write =
            exec_scalar && cfg_.mode == ArchMode::AluScalar;
        accountRegWrite(before, after, to_bvr || scalar_rf_write);
        ws.meta(inst.dst) = after;

        // RRCD-style fault absorption: a write landing in a bank with
        // stuck arrays redirects the register's byte slices into the
        // spare capacity compression frees. Only the health counter
        // sees it — architectural results stay byte-identical.
        if (stuckArraysTotal_ > 0 && codecCaps_.absorbsStuckFaults &&
            stuckArraysPerBank_[unsigned(bankOf(w, inst.dst))] > 0 &&
            codec_->regCompressed(after)) {
            const std::size_t idx =
                std::size_t(w) * unsigned(kernel_.numRegs) +
                unsigned(inst.dst);
            if (idx < rfRedirected_.size() && !rfRedirected_[idx]) {
                rfRedirected_[idx] = true;
                healthCounters().rfRedirectedRegisters.fetch_add(
                    1, std::memory_order_relaxed);
            }
        }
    }

    // ---- fill the lowest free operand collector -------------------------------
    const unsigned c = ocFree_.next(0);
    ocFree_.reset(c);
    --freeCollectors_;
    Collector &col = oc_[c];
    col.warp = w;
    col.inst = inst;
    col.execScalar = exec_scalar;
    col.isStore = isStore(inst.op);
    col.isShared = inst.op == Opcode::LDS || inst.op == Opcode::STS;
    if (inst.pipe() == PipeClass::MEM) {
        if (col.isShared) {
            ++ev_.sharedAccesses;
            // Bank conflict degree: distinct words per bank, maximised
            // over banks; identical words broadcast conflict-free.
            std::array<std::pair<unsigned, Addr>, kMaxWarpSize> uniq;
            unsigned nuniq = 0;
            for (unsigned lane = 0; lane < cfg_.warpSize; ++lane) {
                if (!(exec_mask & (LaneMask{1} << lane)))
                    continue;
                const Addr word = res.addrs[lane] / kBytesPerWord;
                const auto key =
                    std::make_pair(unsigned(word % cfg_.sharedBanks), word);
                if (std::find(uniq.begin(), uniq.begin() + nuniq, key) ==
                    uniq.begin() + nuniq)
                    uniq[nuniq++] = key;
            }
            unsigned degree = 1;
            std::array<unsigned, kMaxWarpSize> per_bank{};
            for (unsigned i = 0; i < nuniq; ++i)
                degree = std::max(degree, ++per_bank[uniq[i].first]);
            col.sharedConflictDegree = degree;
        } else {
            coalesce(res.addrs, exec_mask, cfg_.lineBytes, col.memLines);
            ev_.memRequests += col.memLines.size();
        }
    }

    if (tracer_) {
        Tracer::IssueEvent te;
        te.smId = smId_;
        te.warp = w;
        te.cycle = now;
        te.pc = pc;
        te.inst = &kernel_.code[std::size_t(pc)];
        te.mask = exec_mask;
        te.tier = elig.tier;
        te.execScalar = exec_scalar;
        te.isSpecialMove = smov;
        tracer_->onIssue(te);
    }

    // EBR read + decompress stages (§5.1); the codec says how many it
    // adds under the byte-mask modes, Warped-Compression keeps its own.
    const unsigned extra_front =
        usesByteMaskCompression(cfg_.mode) ? codecCaps_.extraFrontCycles
        : usesBdiCompression(cfg_.mode)    ? 2u
                                           : 0u;
    col.collectDone = std::max<Cycle>(last_grant, now + 1) + extra_front;
    ocPending_.set(c);
    nextCollectDone_ = std::min(nextCollectDone_, col.collectDone);

    boards_[w].reserve(inst);
    ++warpInFlight_[w];

    if (!smov)
        ws.stack().advance(pc + 1);
    return true;
}

// --------------------------------------------------------------------------
// Dispatch & write-back
// --------------------------------------------------------------------------

unsigned
Sm::occupancyCycles(const Collector &f) const
{
    if (f.execScalar && cfg_.scalarShortensOccupancy)
        return 1; // §6: a scalar instruction can issue in one cycle
    const unsigned width =
        f.inst.pipe() == PipeClass::SFU ? cfg_.sfuWidth : cfg_.simtWidth;
    return cfg_.dispatchCycles(width);
}

Cycle
Sm::memoryCompletion(const Collector &f, Cycle start)
{
    if (f.isShared) {
        // Bank conflicts serialise the access (§2.1-style shared
        // memory; degree computed from per-lane word addresses).
        const unsigned extra = f.sharedConflictDegree - 1;
        ev_.sharedBankConflicts += extra;
        return start + cfg_.sharedLatency + extra;
    }

    Cycle done = start + 1;
    for (const Addr line : f.memLines) {
        // Non-blocking L1: the tag port is held for one cycle per
        // access; misses park in an MSHR without blocking later hits.
        const Cycle inject = std::max(l1PortFreeAt_, start) + 1;
        l1PortFreeAt_ = inject;
        ++ev_.l1Accesses;
        const bool hit = l1_.access(line, /*allocate=*/!f.isStore);
        Cycle d;
        if (hit) {
            d = inject + cfg_.l1Latency;
        } else {
            ++ev_.l1Misses;
            // A free MSHR entry gates when the miss reaches the
            // hierarchy.
            auto slot =
                std::min_element(l1Mshr_.begin(), l1Mshr_.end());
            Cycle issue = inject;
            if (*slot > issue) {
                ev_.mshrStallCycles += unsigned(*slot - issue);
                issue = *slot;
            }
            d = memsys_.access(line, f.isStore, issue + cfg_.l1Latency,
                               ev_);
            *slot = f.isStore ? issue + 1 : d;
        }
        if (f.isStore)
            d = inject + 1; // write-through: do not wait for the line
        done = std::max(done, d);
    }
    return done;
}

void
Sm::promoteCollected(Cycle now)
{
    Cycle next = kNoWake;
    for (unsigned c = ocPending_.next(0); c != SlotSet::kNone;
         c = ocPending_.next(c + 1)) {
        const Collector &f = oc_[c];
        if (f.collectDone <= now) {
            ocPending_.reset(c);
            ocReady_[unsigned(f.inst.pipe())].set(c);
        } else {
            next = std::min(next, f.collectDone);
        }
    }
    nextCollectDone_ = next;
}

void
Sm::dispatch(unsigned c, Pipe &pipe, Cycle now)
{
    const Collector &f = oc_[c];
    const unsigned occ = occupancyCycles(f);
    pipe.freeAt = now + occ;

    const unsigned extra_wb = cfg_.extraCycles() > 0 ? 1u : 0u;
    Cycle wb;
    if (f.inst.pipe() == PipeClass::MEM) {
        wb = memoryCompletion(f, now + occ);
    } else {
        unsigned lat = cfg_.aluLatency;
        switch (traits(f.inst.op).lat) {
          case LatClass::Simple: lat = cfg_.aluLatency; break;
          case LatClass::Mul: lat = cfg_.mulLatency; break;
          case LatClass::Div: lat = cfg_.divLatency; break;
          case LatClass::Sfu: lat = cfg_.sfuLatency; break;
          default: break;
        }
        wb = now + occ + lat;
    }
    wbQueue_.push_back({wb + extra_wb, f.warp,
                        f.inst.writesDst() ? f.inst.dst : kNoReg,
                        f.inst.pdst});
    std::push_heap(wbQueue_.begin(), wbQueue_.end(), LaterWb{});

    ocReady_[unsigned(f.inst.pipe())].reset(c);
    ocFree_.set(c);
    ++freeCollectors_;
}

bool
Sm::dispatchReady(Cycle now)
{
    if (nextCollectDone_ <= now)
        promoteCollected(now);

    // Per pipe class, the first ready collectors in cursor order take
    // the free pipes; every other ready one is a pipe-busy stall.
    bool dispatched = false;
    const unsigned n = unsigned(oc_.size());
    for (const PipeClass cls :
         {PipeClass::ALU, PipeClass::SFU, PipeClass::MEM}) {
        const SlotSet &ready = ocReady_[unsigned(cls)];
        // empty() first: count() is a popcount loop.
        if (ready.empty())
            continue;
        const unsigned waiting = ready.count();

        std::array<Pipe *, 2> pipes{};
        unsigned free_pipes = 0;
        auto offer = [&](Pipe &p) {
            if (p.freeAt <= now)
                pipes[free_pipes++] = &p;
        };
        switch (cls) {
          case PipeClass::ALU: offer(alu0_); offer(alu1_); break;
          case PipeClass::SFU: offer(sfu_); break;
          default: offer(mem_); break;
        }

        const unsigned take = std::min(waiting, free_pipes);
        unsigned taken = 0;
        for (unsigned c = ready.next(ocRotate_);
             taken < take && c != SlotSet::kNone; c = ready.next(c + 1))
            dispatch(c, *pipes[taken++], now);
        for (unsigned c = ready.next(0); taken < take && c < ocRotate_;
             c = ready.next(c + 1))
            dispatch(c, *pipes[taken++], now);
        ev_.pipeBusyStalls += waiting - taken;
        dispatched |= taken > 0;
    }
    ocRotate_ = (ocRotate_ + 1) % n;
    return dispatched;
}

bool
Sm::writeback(Cycle now)
{
    bool wrote_back = false;
    while (!wbQueue_.empty() && wbQueue_.front().wbAt <= now) {
        std::pop_heap(wbQueue_.begin(), wbQueue_.end(), LaterWb{});
        const WbEntry e = wbQueue_.back();
        wbQueue_.pop_back();
        wrote_back = true;

        boards_[e.warp].release(e.dst, e.pdst);
        GS_ASSERT(warpInFlight_[e.warp] > 0, "in-flight underflow");
        if (--warpInFlight_[e.warp] == 0 && warps_[e.warp].done())
            retireDue_ = true;
        // Readiness only improves here: re-check a blocked warp.
        if (sbBlocked_.test(e.warp)) {
            const int pc = warps_[e.warp].stack().pc();
            if (boards_[e.warp].ready(kernel_.code[std::size_t(pc)]))
                sbBlocked_.reset(e.warp);
        }
    }
    return wrote_back;
}

} // namespace gs
