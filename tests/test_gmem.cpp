#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sim/gmem.hpp"

namespace gs
{
namespace
{

TEST(GlobalMemory, ZeroInitialised)
{
    GlobalMemory m;
    EXPECT_EQ(m.readWord(0), 0u);
    EXPECT_EQ(m.readWord(0x123450), 0u);
    EXPECT_EQ(m.pageCount(), 0u); // reads allocate nothing
}

TEST(GlobalMemory, ReadBack)
{
    GlobalMemory m;
    m.writeWord(0x100, 0xdeadbeef);
    EXPECT_EQ(m.readWord(0x100), 0xdeadbeefu);
    EXPECT_EQ(m.readWord(0x104), 0u);
}

TEST(GlobalMemory, PageBoundary)
{
    GlobalMemory m;
    m.writeWord(4092, 0x11);
    m.writeWord(4096, 0x22);
    EXPECT_EQ(m.readWord(4092), 0x11u);
    EXPECT_EQ(m.readWord(4096), 0x22u);
    EXPECT_EQ(m.pageCount(), 2u);
}

TEST(GlobalMemory, SparsePages)
{
    GlobalMemory m;
    m.writeWord(0, 1);
    m.writeWord(1ull << 30, 2);
    EXPECT_EQ(m.pageCount(), 2u);
    EXPECT_EQ(m.readWord(1ull << 30), 2u);
}

TEST(GlobalMemory, FillAndReadWords)
{
    GlobalMemory m;
    m.fillWords(0x2000, {1, 2, 3, 4});
    const auto v = m.readWords(0x2000, 4);
    EXPECT_EQ(v, (std::vector<Word>{1, 2, 3, 4}));
}

/** Fill @p m page-wise and @p ref word by word, then compare both. */
void
fillBoth(GlobalMemory &m, GlobalMemory &ref, Addr addr,
         const std::vector<Word> &values)
{
    m.fillWords(addr, values);
    for (std::size_t i = 0; i < values.size(); ++i)
        ref.writeWord(addr + i * kBytesPerWord, values[i]);
    EXPECT_EQ(m.pageCount(), ref.pageCount()) << "fill at " << addr;
}

/** readWords over [lo, hi) matches the reference's per-word reads. */
void
expectSameWords(const GlobalMemory &m, const GlobalMemory &ref, Addr lo,
                Addr hi)
{
    const std::vector<Word> got = m.readWords(lo, (hi - lo) / kBytesPerWord);
    for (std::size_t i = 0; i < got.size(); ++i) {
        const Addr a = lo + i * kBytesPerWord;
        ASSERT_EQ(got[i], ref.readWord(a)) << "word at " << a;
    }
}

std::vector<Word>
randomWords(Rng &rng, std::size_t n)
{
    std::vector<Word> v(n);
    for (Word &w : v)
        w = rng.next32() | 1; // never zero: a skipped word shows
    return v;
}

TEST(GlobalMemory, FillWordsMatchesPerWordWrites)
{
    constexpr Addr kPage = GlobalMemory::kPageBytes;
    constexpr std::size_t kPageWords = kPage / kBytesPerWord;
    GlobalMemory m, ref;
    Rng rng(42);

    fillBoth(m, ref, 0x10000, randomWords(rng, kPageWords)); // one page
    fillBoth(m, ref, 0x20000 + 0x40, randomWords(rng, 100)); // mid-page
    // Straddles three page boundaries, starting one word before one.
    fillBoth(m, ref, 0x30000 - 4, randomWords(rng, 2 * kPageWords + 3));
    fillBoth(m, ref, 0x50000, {}); // empty: creates no page
    // Overwrite a middle stretch: its neighbours keep their values.
    fillBoth(m, ref, 0x10000 + 0x100, randomWords(rng, 8));
    for (int i = 0; i < 64; ++i) {
        const Addr addr = 0x100000 + rng.below(8 * kPage / 4) * 4;
        fillBoth(m, ref, addr, randomWords(rng, rng.below(3 * kPageWords)));
    }

    expectSameWords(m, ref, 0x10000 - kPage, 0x10000 + 2 * kPage);
    expectSameWords(m, ref, 0x20000, 0x20000 + kPage);
    expectSameWords(m, ref, 0x30000 - 2 * kPage, 0x30000 + 4 * kPage);
    expectSameWords(m, ref, 0x50000 - 4, 0x50000 + 4);
    expectSameWords(m, ref, 0x100000 - kPage, 0x100000 + 12 * kPage);
    // A read span starting mid-page and crossing an absent page.
    expectSameWords(m, ref, 0x30000 + 2 * kPage + 0x20,
                    0x30000 + 4 * kPage + 0x40);
    EXPECT_EQ(m.readWords(0x2000, 0), std::vector<Word>{});
}

TEST(GmemTxn, AbsentPageReadsZeroAndIsNotCached)
{
    GlobalMemory m;
    GmemTxn reader(m), writer(m);
    EXPECT_EQ(reader.readWord(0x3000), 0u);
    EXPECT_EQ(m.pageCount(), 0u); // the read allocated nothing
    // Another SM creates the page: the reader must see it, not a
    // cached "absent".
    writer.writeWord(0x3004, 0xabcd);
    EXPECT_EQ(reader.readWord(0x3004), 0xabcdu);
    EXPECT_EQ(reader.readWord(0x3000), 0u);
}

TEST(GmemTxn, CachedPageSeesOtherWriters)
{
    GlobalMemory m;
    m.writeWord(0x5000, 1);
    GmemTxn reader(m), writer(m);
    EXPECT_EQ(reader.readWord(0x5000), 1u); // caches the page
    writer.writeWord(0x5000, 2);
    writer.writeWord(0x5ffc, 3);
    EXPECT_EQ(reader.readWord(0x5000), 2u);
    EXPECT_EQ(reader.readWord(0x5ffc), 3u);
    // Switching pages and back still reads through.
    writer.writeWord(0x6000, 4);
    EXPECT_EQ(reader.readWord(0x6000), 4u);
    EXPECT_EQ(reader.readWord(0x5000), 2u);
    EXPECT_EQ(m.readWord(0x5ffc), 3u); // writes go straight through
}

TEST(GmemTxn, StoreThenLoadThroughOneView)
{
    GlobalMemory m;
    GmemTxn view(m);
    view.writeWord(0x7000, 5);  // creates and caches the page
    view.writeWord(0x7ffc, 6);  // in place
    EXPECT_EQ(view.readWord(0x7000), 5u);
    EXPECT_EQ(view.readWord(0x7ffc), 6u);
    view.writeWord(0x8000, 7);  // next page becomes the cached one
    EXPECT_EQ(view.readWord(0x7ffc), 6u);
    EXPECT_EQ(view.readWord(0x8000), 7u);
    view.writeWord(0x8000, 8);  // after a load of the same page
    EXPECT_EQ(view.readWord(0x8000), 8u);
    EXPECT_EQ(m.readWord(0x7000), 5u);
    EXPECT_EQ(m.readWord(0x8000), 8u);
    EXPECT_EQ(m.readWord(0x8004), 0u);
    EXPECT_EQ(m.pageCount(), 2u);
}

TEST(GmemTxn, StoreCreatesPageOtherViewsRead)
{
    GlobalMemory m;
    GmemTxn a(m), b(m);
    EXPECT_EQ(a.readWord(0x9000), 0u); // absent: not cached
    b.writeWord(0x9004, 0x77);         // b creates the page
    EXPECT_EQ(m.pageCount(), 1u);
    EXPECT_EQ(a.readWord(0x9004), 0x77u); // now a caches it
    b.writeWord(0x9008, 0x78);            // b's store through its cache
    EXPECT_EQ(a.readWord(0x9008), 0x78u);
    a.writeWord(0x900c, 0x79);            // a's store in place
    EXPECT_EQ(b.readWord(0x900c), 0x79u);
    EXPECT_EQ(m.readWord(0x900c), 0x79u);
    EXPECT_EQ(m.pageCount(), 1u);
}

TEST(GlobalMemoryDeath, UnalignedAccessPanics)
{
    GlobalMemory m;
    EXPECT_DEATH(m.writeWord(3, 1), "unaligned");
    EXPECT_DEATH(m.readWord(5), "unaligned");
}

TEST(GlobalMemoryDeath, UnalignedFillPanics)
{
    GlobalMemory m;
    EXPECT_DEATH(m.fillWords(0x1002, {1, 2}), "unaligned");
}

} // namespace
} // namespace gs
