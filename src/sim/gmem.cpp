#include "gmem.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace gs
{

GlobalMemory::Page &
GlobalMemory::page(Addr addr)
{
    const Addr key = addr / kPageBytes;
    auto &slot = pages_[key];
    if (!slot)
        slot = std::make_unique<Page>(); // value-initialised: all zero
    return *slot;
}

const GlobalMemory::Page *
GlobalMemory::pageIfPresent(Addr addr) const
{
    const auto it = pages_.find(addr / kPageBytes);
    return it == pages_.end() ? nullptr : it->second.get();
}

Word
GlobalMemory::readWord(Addr addr) const
{
    GS_ASSERT(addr % kBytesPerWord == 0, "unaligned read at ", addr);
    const Page *p = pageIfPresent(addr);
    if (!p)
        return 0;
    Word w;
    std::memcpy(&w, p->data() + addr % kPageBytes, sizeof(w));
    return w;
}

void
GlobalMemory::writeWord(Addr addr, Word value)
{
    GS_ASSERT(addr % kBytesPerWord == 0, "unaligned write at ", addr);
    Page &p = page(addr);
    std::memcpy(p.data() + addr % kPageBytes, &value, sizeof(value));
}

void
GlobalMemory::fillWords(Addr addr, const std::vector<Word> &values)
{
    // One page lookup and one copy per page span.
    GS_ASSERT(addr % kBytesPerWord == 0, "unaligned write at ", addr);
    const Word *src = values.data();
    for (std::size_t left = values.size(); left > 0;) {
        const Addr off = addr % kPageBytes;
        const std::size_t n =
            std::min<std::size_t>(left, (kPageBytes - off) / kBytesPerWord);
        std::memcpy(page(addr).data() + off, src, n * sizeof(Word));
        src += n;
        left -= n;
        addr += n * kBytesPerWord;
    }
}

std::vector<Word>
GlobalMemory::readWords(Addr addr, std::size_t count) const
{
    GS_ASSERT(addr % kBytesPerWord == 0, "unaligned read at ", addr);
    std::vector<Word> out(count); // absent pages read as zero
    Word *dst = out.data();
    for (std::size_t left = count; left > 0;) {
        const Addr off = addr % kPageBytes;
        const std::size_t n =
            std::min<std::size_t>(left, (kPageBytes - off) / kBytesPerWord);
        if (const Page *p = pageIfPresent(addr))
            std::memcpy(dst, p->data() + off, n * sizeof(Word));
        dst += n;
        left -= n;
        addr += n * kBytesPerWord;
    }
    return out;
}

} // namespace gs
