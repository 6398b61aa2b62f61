/**
 * @file
 * A fixed-capacity set of small indices (warp slots, operand
 * collectors) stored as a multi-word bitmap, so the SM can walk only
 * the members of a set, in index order, by count-trailing-zeros.
 */

#ifndef GSCALAR_SIM_SLOT_SET_HPP
#define GSCALAR_SIM_SLOT_SET_HPP

#include <bit>
#include <cstdint>
#include <vector>

namespace gs
{

/** Set of indices in [0, capacity). */
class SlotSet
{
  public:
    /** Sentinel returned by next() when no member remains. */
    static constexpr unsigned kNone = ~0u;

    /** Empty set able to hold indices below @p capacity. */
    void
    resize(unsigned capacity)
    {
        words_.assign((capacity + 63) / 64, 0);
    }

    void set(unsigned i) { words_[i / 64] |= bit(i); }
    void reset(unsigned i) { words_[i / 64] &= ~bit(i); }
    bool test(unsigned i) const { return (words_[i / 64] & bit(i)) != 0; }

    bool
    empty() const
    {
        for (const std::uint64_t w : words_)
            if (w != 0)
                return false;
        return true;
    }

    unsigned
    count() const
    {
        unsigned n = 0;
        for (const std::uint64_t w : words_)
            n += unsigned(std::popcount(w));
        return n;
    }

    /** Smallest member >= @p from, or kNone. */
    unsigned
    next(unsigned from) const
    {
        unsigned k = from / 64;
        if (k >= words_.size())
            return kNone;
        std::uint64_t w = words_[k] & (~std::uint64_t{0} << (from % 64));
        while (w == 0) {
            if (++k == words_.size())
                return kNone;
            w = words_[k];
        }
        return k * 64 + unsigned(std::countr_zero(w));
    }

    /** Overwrite each word k with @p word(k): a word-wise combination
     *  of sets of the same capacity. */
    template <typename WordFn>
    void
    assign(const WordFn &word)
    {
        for (unsigned k = 0; k < words_.size(); ++k)
            words_[k] = word(k);
    }

    /** Raw word @p k (indices 64k .. 64k+63). */
    std::uint64_t word(unsigned k) const { return words_[k]; }

  private:
    static std::uint64_t
    bit(unsigned i)
    {
        return std::uint64_t{1} << (i % 64);
    }

    std::vector<std::uint64_t> words_;
};

} // namespace gs

#endif // GSCALAR_SIM_SLOT_SET_HPP
