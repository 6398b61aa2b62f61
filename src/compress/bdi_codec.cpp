#include "bdi_codec.hpp"

#include <algorithm>

#include "common/bit_utils.hpp"
#include "common/log.hpp"

namespace gs
{

unsigned
bdiStoredBytes(BdiMode mode, unsigned lanes)
{
    switch (mode) {
      case BdiMode::Zero: return 0;
      case BdiMode::Scalar: return kBytesPerWord;
      case BdiMode::BaseDelta1: return kBytesPerWord + lanes;
      case BdiMode::BaseDelta2: return kBytesPerWord + 2 * lanes;
      case BdiMode::Uncompressed: return kBytesPerWord * lanes;
    }
    return kBytesPerWord * lanes;
}

namespace
{

/** |int32(v - base)|, exact for every pair (2^31 fits unsigned). */
inline std::uint32_t
absDelta(Word v, Word base)
{
    const Word d = v - base;
    return std::int32_t(d) < 0 ? Word(0) - d : d;
}

} // namespace

BdiEncoding
analyzeBdi(std::span<const Word> values, LaneMask active)
{
    GS_ASSERT(active != 0, "BDI comparison needs an active lane");

    const unsigned base_lane = firstLane(active);
    GS_ASSERT(base_lane < values.size(), "active mask exceeds lane count");
    const Word base = values[base_lane];
    const unsigned lanes = unsigned(values.size());

    // OR of the compared words (zero test), OR of their XOR against the
    // base (all-same test) and the largest |delta|.
    Word any_bits = 0;
    Word any_diff = 0;
    std::uint32_t max_abs_delta = 0;
    auto visit = [&](Word v) {
        any_bits |= v;
        any_diff |= v ^ base;
        max_abs_delta = std::max(max_abs_delta, absDelta(v, base));
    };
    const LaneMask all = laneMaskLow(lanes);
    if ((active & all) == all) {
        // Non-divergent write: no per-lane mask test.
        for (const Word v : values)
            visit(v);
    } else {
        for (LaneMask m = active & all; m != 0; m &= m - 1)
            visit(values[firstLane(m)]);
    }

    BdiEncoding e;
    e.base = base;
    if (any_bits == 0) {
        e.mode = BdiMode::Zero;
    } else if (any_diff == 0) {
        e.mode = BdiMode::Scalar;
    } else if (max_abs_delta < 128) {
        e.mode = BdiMode::BaseDelta1;
    } else if (max_abs_delta < 32768) {
        e.mode = BdiMode::BaseDelta2;
    } else {
        e.mode = BdiMode::Uncompressed;
    }
    e.storedBytes = bdiStoredBytes(e.mode, lanes);
    return e;
}

} // namespace gs
