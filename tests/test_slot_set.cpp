#include <gtest/gtest.h>

#include <vector>

#include "sim/slot_set.hpp"

namespace gs
{
namespace
{

std::vector<unsigned>
members(const SlotSet &s, unsigned from = 0)
{
    std::vector<unsigned> out;
    for (unsigned i = s.next(from); i != SlotSet::kNone; i = s.next(i + 1))
        out.push_back(i);
    return out;
}

TEST(SlotSet, WalksMembersAcrossWordsInOrder)
{
    SlotSet s;
    s.resize(192); // warp size 8: 192 warp slots per SM
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.next(0), SlotSet::kNone);
    for (const unsigned i : {0u, 63u, 64u, 130u, 191u})
        s.set(i);
    EXPECT_EQ(s.count(), 5u);
    EXPECT_EQ(members(s), (std::vector<unsigned>{0, 63, 64, 130, 191}));
    EXPECT_EQ(members(s, 65), (std::vector<unsigned>{130, 191}));
    EXPECT_EQ(s.next(192), SlotSet::kNone);

    s.reset(64);
    EXPECT_FALSE(s.test(64));
    EXPECT_TRUE(s.test(63));
    EXPECT_EQ(s.next(64), 130u);
}

TEST(SlotSet, AssignCombinesWordwise)
{
    SlotSet a, b, c;
    for (SlotSet *x : {&a, &b, &c})
        x->resize(100);
    for (unsigned i = 0; i < 100; i += 3)
        a.set(i);
    for (unsigned i = 0; i < 100; i += 2)
        b.set(i);
    c.assign([&](unsigned k) { return a.word(k) & ~b.word(k); });
    std::vector<unsigned> want;
    for (unsigned i = 0; i < 100; ++i)
        if (i % 3 == 0 && i % 2 != 0)
            want.push_back(i);
    EXPECT_EQ(members(c), want);
}

} // namespace
} // namespace gs
