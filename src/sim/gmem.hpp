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
    std::uint8_t *
    pageBytes(Addr addr)
    {
        const auto it = pages_.find(addr / kPageBytes);
        return it == pages_.end() ? nullptr : it->second->data();
    }

    /** Bytes of the page holding @p addr, created zeroed if absent. */
    std::uint8_t *pageBytesForWrite(Addr addr) { return page(addr).data(); }

  private:
    using Page = std::array<std::uint8_t, kPageBytes>;

    Page &page(Addr addr);
    const Page *pageIfPresent(Addr addr) const;

    std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
};

/**
 * An SM's view of global memory: loads and stores go through a
 * one-entry cache of the last page they touched.
 */
class GmemTxn
{
  public:
    explicit GmemTxn(GlobalMemory &mem) : mem_(&mem) {}

    Word
    readWord(Addr addr)
    {
        // Loads stream through a few pages: remember the last present
        // one. Only present pages are cached, since another SM may
        // create an absent one at any time.
        GS_ASSERT(addr % kBytesPerWord == 0, "unaligned read at ", addr);
        const Addr key = addr / GlobalMemory::kPageBytes;
        if (key != lastKey_) {
            std::uint8_t *bytes = mem_->pageBytes(addr);
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
        // A store to another page creates it if needed; that page is
        // then present for good and becomes the cached one.
        GS_ASSERT(addr % kBytesPerWord == 0, "unaligned write at ", addr);
        const Addr key = addr / GlobalMemory::kPageBytes;
        if (key != lastKey_) {
            lastKey_ = key;
            lastPage_ = mem_->pageBytesForWrite(addr);
        }
        std::memcpy(lastPage_ + addr % GlobalMemory::kPageBytes, &value,
                    sizeof(value));
    }

  private:
    GlobalMemory *mem_;
    /** Last present page touched (one entry, per SM view: never share). */
    Addr lastKey_ = ~Addr{0};
    std::uint8_t *lastPage_ = nullptr;
};

} // namespace gs

#endif // GSCALAR_SIM_GMEM_HPP
