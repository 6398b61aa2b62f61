#include <gtest/gtest.h>

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

TEST(GlobalMemoryDeath, UnalignedAccessPanics)
{
    GlobalMemory m;
    EXPECT_DEATH(m.writeWord(3, 1), "unaligned");
    EXPECT_DEATH(m.readWord(5), "unaligned");
}

} // namespace
} // namespace gs
