/**
 * @file
 * Timing model of the shared memory hierarchy below the SMs: L2 slices
 * (one per memory channel) and DRAM channels with limited service
 * rates. Per-SM L1 caches live in the SM; they call into this for
 * misses.
 */

#ifndef GSCALAR_SIM_MEMORY_MEMORY_SYSTEM_HPP
#define GSCALAR_SIM_MEMORY_MEMORY_SYSTEM_HPP

#include <array>
#include <vector>

#include "cache.hpp"
#include "common/config.hpp"
#include "common/events.hpp"
#include "common/types.hpp"

namespace gs
{

/** Shared L2 + DRAM timing model. */
class MemorySystem
{
  public:
    explicit MemorySystem(const ArchConfig &cfg);

    /**
     * Service an L1 miss (or uncached store) for the line containing
     * @p addr arriving at @p now.
     *
     * @param is_store store requests update tags but complete on
     *        injection (write-through, no allocate-stall)
     * @return cycle the data is available at the SM
     */
    Cycle access(Addr addr, bool is_store, Cycle now, EventCounts &ev);

    /** Reset between kernels. */
    void reset();

  private:
    unsigned channelOf(Addr addr) const;

    const ArchConfig &cfg_;
    std::vector<Cache> l2_;          ///< one slice per channel
    std::vector<Cycle> l2NextFree_;  ///< slice port
    std::vector<Cycle> dramNextFree_;
    double dramServiceCycles_;
};

/**
 * Coalesce the per-lane addresses of a memory instruction into unique
 * line-aligned segments (the memory pipeline's address coalescer).
 *
 * @return line-aligned addresses, one per distinct segment
 */
std::vector<Addr> coalesce(const std::array<Addr, kMaxWarpSize> &addrs,
                           LaneMask mask, unsigned line_bytes);

/** coalesce() into @p lines (cleared first), reusing its buffer. */
void coalesce(const std::array<Addr, kMaxWarpSize> &addrs, LaneMask mask,
              unsigned line_bytes, std::vector<Addr> &lines);

} // namespace gs

#endif // GSCALAR_SIM_MEMORY_MEMORY_SYSTEM_HPP
