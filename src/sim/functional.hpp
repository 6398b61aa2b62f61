/**
 * @file
 * Functional (value) execution of one warp instruction. Timing is
 * modelled elsewhere; this computes results, predicate outcomes and
 * memory effects in program order.
 */

#ifndef GSCALAR_SIM_FUNCTIONAL_HPP
#define GSCALAR_SIM_FUNCTIONAL_HPP

#include <array>
#include <span>

#include "gmem.hpp"
#include "isa/instruction.hpp"
#include "warp_state.hpp"

namespace gs
{

/** Launch-geometry context for special registers. */
struct SregContext
{
    unsigned ctaId = 0;
    unsigned nTid = 0;    ///< threads per CTA
    unsigned nCtaId = 0;  ///< CTAs in grid
    unsigned warpId = 0;  ///< warp within CTA
    unsigned threadBase = 0; ///< first thread id of this warp
};

/** True when @p s reads the same value in every lane of a warp. */
bool sregIsUniform(SReg s);

/**
 * Outcome of functionally executing one instruction. The per-lane
 * arrays are not initialised: a lane outside the write mask (dst) or
 * the execution mask (addrs) holds an undefined value and must never
 * be read.
 */
struct ExecResult
{
    /** Per-lane destination values (defined in writeMask lanes only). */
    std::array<Word, kMaxWarpSize> dst;
    /** Lanes whose predicate result is true (ISETP/FSETP). */
    LaneMask predTrue = 0;
    /** Per-lane byte addresses of a memory operation (defined in the
     *  executed lanes only). */
    std::array<Addr, kMaxWarpSize> addrs;
    /** Lanes that actually wrote dst (mask, or full mask for SMOV). */
    LaneMask writeMask = 0;
};

/**
 * Execute @p inst for the lanes of @p mask. Loads read and stores write
 * @p gmem or @p shared immediately (program order per warp). The GmemTxn
 * view writes through to global memory, so a later load of any SM sees
 * the store.
 *
 * @param shared this CTA's shared-memory segment (word granular)
 */
ExecResult executeFunctional(const Instruction &inst, WarpState &warp,
                             LaneMask mask, const SregContext &ctx,
                             GmemTxn &gmem, std::span<Word> shared);

/** Convenience overload: execute against bare memory. */
inline ExecResult
executeFunctional(const Instruction &inst, WarpState &warp, LaneMask mask,
                  const SregContext &ctx, GlobalMemory &gmem,
                  std::span<Word> shared)
{
    GmemTxn txn(gmem);
    return executeFunctional(inst, warp, mask, ctx, txn, shared);
}

} // namespace gs

#endif // GSCALAR_SIM_FUNCTIONAL_HPP
