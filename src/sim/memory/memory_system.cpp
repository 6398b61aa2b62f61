#include "memory_system.hpp"

#include <algorithm>
#include <array>

#include "common/bit_utils.hpp"

namespace gs
{

MemorySystem::MemorySystem(const ArchConfig &cfg) : cfg_(cfg)
{
    const std::size_t slice_bytes = cfg.l2Bytes / cfg.memChannels;
    for (unsigned c = 0; c < cfg.memChannels; ++c)
        l2_.emplace_back(slice_bytes, cfg.l2Assoc, cfg.lineBytes);
    l2NextFree_.assign(cfg.memChannels, 0);
    dramNextFree_.assign(cfg.memChannels, 0);
    dramServiceCycles_ = 1.0 / cfg.dramRequestsPerCycle;
}

unsigned
MemorySystem::channelOf(Addr addr) const
{
    return unsigned((addr / cfg_.lineBytes) % cfg_.memChannels);
}

Cycle
MemorySystem::access(Addr addr, bool is_store, Cycle now, EventCounts &ev)
{
    const unsigned ch = channelOf(addr);

    // One request per slice port per cycle.
    const Cycle start = std::max(l2NextFree_[ch], now) + 1;
    l2NextFree_[ch] = start;

    ++ev.l2Accesses;
    const bool hit = l2_[ch].access(addr, /*allocate=*/true);
    if (hit)
        return start + cfg_.l2Latency;

    ++ev.l2Misses;
    ++ev.dramAccesses;
    const Cycle dram_start =
        std::max<Cycle>(dramNextFree_[ch], start + cfg_.l2Latency);
    dramNextFree_[ch] = dram_start + Cycle(dramServiceCycles_);

    if (is_store) {
        // Write-through: the SM does not wait for DRAM.
        return start + cfg_.l2Latency;
    }
    return dram_start + cfg_.dramLatency;
}

void
MemorySystem::reset()
{
    for (Cache &c : l2_)
        c.clear();
    std::fill(l2NextFree_.begin(), l2NextFree_.end(), 0);
    std::fill(dramNextFree_.begin(), dramNextFree_.end(), 0);
}

std::vector<Addr>
coalesce(const std::array<Addr, kMaxWarpSize> &addrs, LaneMask mask,
         unsigned line_bytes)
{
    std::vector<Addr> lines;
    coalesce(addrs, mask, line_bytes, lines);
    return lines;
}

void
coalesce(const std::array<Addr, kMaxWarpSize> &addrs, LaneMask mask,
         unsigned line_bytes, std::vector<Addr> &lines)
{
    lines.clear();
    for (unsigned lane = 0; lane < kMaxWarpSize; ++lane) {
        if (!(mask & (LaneMask{1} << lane)))
            continue;
        const Addr line = addrs[lane] / line_bytes * line_bytes;
        if (std::find(lines.begin(), lines.end(), line) == lines.end())
            lines.push_back(line);
    }
}

} // namespace gs
