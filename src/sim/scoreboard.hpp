/**
 * @file
 * Per-warp scoreboard tracking in-flight register and predicate writes.
 * An instruction may not issue while any register it reads or writes
 * has a pending write (GPUs have no operand bypassing, §5.4).
 */

#ifndef GSCALAR_SIM_SCOREBOARD_HPP
#define GSCALAR_SIM_SCOREBOARD_HPP

#include <vector>

#include "common/log.hpp"
#include "isa/instruction.hpp"

namespace gs
{

/** Scoreboard for one warp. */
class Scoreboard
{
  public:
    void
    init(unsigned num_regs, unsigned num_preds)
    {
        regPending_.assign(num_regs, 0);
        predPending_.assign(num_preds, 0);
    }

    /** True when @p inst can issue (no RAW/WAW/pred hazards). */
    bool
    ready(const Instruction &inst) const
    {
        if (inst.writesDst() && pendingReg(inst.dst))
            return false;
        for (unsigned s = 0; s < inst.numSrcRegs(); ++s)
            if (pendingReg(inst.src[s]))
                return false;
        if (inst.pdst != kNoPred && predPending_[unsigned(inst.pdst)])
            return false;
        if (inst.psrc != kNoPred && predPending_[unsigned(inst.psrc)])
            return false;
        if (inst.guard != kNoPred && predPending_[unsigned(inst.guard)])
            return false;
        return true;
    }

    /** Mark destinations pending at issue. */
    void
    reserve(const Instruction &inst)
    {
        if (inst.writesDst())
            ++regPending_[unsigned(inst.dst)];
        if (inst.pdst != kNoPred)
            ++predPending_[unsigned(inst.pdst)];
    }

    /** Release destinations at write-back. */
    void
    release(const Instruction &inst)
    {
        release(inst.writesDst() ? inst.dst : kNoReg, inst.pdst);
    }

    /** Release the destinations a packet reserved: @p dst (kNoReg when
     *  it writes no register) and @p pdst (kNoPred when none). */
    void
    release(RegIdx dst, PredIdx pdst)
    {
        if (dst != kNoReg) {
            GS_ASSERT(regPending_[unsigned(dst)] > 0,
                      "releasing idle register");
            --regPending_[unsigned(dst)];
        }
        if (pdst != kNoPred) {
            GS_ASSERT(predPending_[unsigned(pdst)] > 0,
                      "releasing idle predicate");
            --predPending_[unsigned(pdst)];
        }
    }

    /** Any write in flight at all (tests / barrier draining). */
    bool
    anyPending() const
    {
        for (auto c : regPending_)
            if (c)
                return true;
        for (auto c : predPending_)
            if (c)
                return true;
        return false;
    }

  private:
    bool
    pendingReg(RegIdx r) const
    {
        return r != kNoReg && regPending_[unsigned(r)] != 0;
    }

    std::vector<std::uint8_t> regPending_;
    std::vector<std::uint8_t> predPending_;
};

} // namespace gs

#endif // GSCALAR_SIM_SCOREBOARD_HPP
