/**
 * @file
 * Functional (value-holding) device global memory. Timing is modelled
 * separately by MemorySystem; this class only stores bytes. Paged so
 * sparse address spaces stay cheap.
 */

#ifndef GSCALAR_SIM_GMEM_HPP
#define GSCALAR_SIM_GMEM_HPP

#include <array>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"

namespace gs
{

/** Byte-addressable functional memory with 4 KB pages. */
class GlobalMemory
{
  public:
    /** Read a 4-byte word at @p addr (must be 4-byte aligned). */
    Word readWord(Addr addr) const;

    /** Write a 4-byte word at @p addr (must be 4-byte aligned). */
    void writeWord(Addr addr, Word value);

    /** Bulk-initialise words starting at @p addr. */
    void fillWords(Addr addr, const std::vector<Word> &values);

    /** Read @p count consecutive words starting at @p addr. */
    std::vector<Word> readWords(Addr addr, std::size_t count) const;

    /** Pages currently allocated (tests). */
    std::size_t pageCount() const { return pages_.size(); }

    static constexpr Addr kPageBytes = 4096;

    /** Bytes of the page holding @p addr, or nullptr while no word of
     *  it was written. A present page never moves, and lives as long
     *  as this GlobalMemory. */
    const std::uint8_t *
    pageBytes(Addr addr) const
    {
        const Page *p = pageIfPresent(addr);
        return p ? p->data() : nullptr;
    }

  private:
    using Page = std::array<std::uint8_t, kPageBytes>;

    Page &page(Addr addr);
    const Page *pageIfPresent(Addr addr) const;

    std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
};

/**
 * An SM's view of global memory. Direct by default (serial ticking:
 * every access goes straight to the backing GlobalMemory). In deferred
 * mode (parallel ticking) stores are buffered into a per-cycle write
 * log and loads snoop that log newest-first before falling back to the
 * backing store, which preserves program order *within* the SM while
 * other SMs issue concurrently; the parallel driver commits the logs
 * in SM order at the end of the cycle so the backing memory takes
 * writes in exactly the serial order. The read log exists only to let
 * the driver detect cross-SM same-cycle read/write overlap.
 */
class GmemTxn
{
  public:
    explicit GmemTxn(GlobalMemory &mem) : mem_(&mem) {}

    /** Buffer stores per cycle (parallel ticking) instead of writing
     *  through. Turning it off with a non-empty log is a bug. */
    void setDeferred(bool on) { deferred_ = on; }
    bool deferred() const { return deferred_; }

    Word
    readWord(Addr addr)
    {
        if (deferred_) {
            reads_.push_back(addr);
            for (auto it = writes_.rbegin(); it != writes_.rend(); ++it)
                if (it->first == addr)
                    return it->second;
        }
        // Loads stream through a few pages: remember the last present
        // one. Only present pages are cached, since another SM may
        // create an absent one at any time.
        GS_ASSERT(addr % kBytesPerWord == 0, "unaligned read at ", addr);
        const Addr key = addr / GlobalMemory::kPageBytes;
        if (key != lastKey_) {
            const std::uint8_t *bytes = mem_->pageBytes(addr);
            if (bytes == nullptr)
                return 0; // never written
            lastKey_ = key;
            lastPage_ = bytes;
        }
        Word w;
        std::memcpy(&w, lastPage_ + addr % GlobalMemory::kPageBytes,
                    sizeof(w));
        return w;
    }

    void
    writeWord(Addr addr, Word value)
    {
        if (deferred_) {
            writes_.emplace_back(addr, value);
            return;
        }
        mem_->writeWord(addr, value);
    }

    /** Word addresses read this cycle (deferred mode only). */
    const std::vector<Addr> &readLog() const { return reads_; }

    /** Stores buffered this cycle, in program order. */
    const std::vector<std::pair<Addr, Word>> &writeLog() const
    {
        return writes_;
    }

    /** Apply the write log to the backing memory and clear both logs. */
    void
    commit()
    {
        for (const auto &[a, v] : writes_)
            mem_->writeWord(a, v);
        writes_.clear();
        reads_.clear();
    }

  private:
    GlobalMemory *mem_;
    bool deferred_ = false;
    /** Last present page read (one entry, per SM view: never share). */
    Addr lastKey_ = ~Addr{0};
    const std::uint8_t *lastPage_ = nullptr;
    std::vector<Addr> reads_;
    std::vector<std::pair<Addr, Word>> writes_;
};

} // namespace gs

#endif // GSCALAR_SIM_GMEM_HPP
