/**
 * @file
 * Strict parsing of decimal values from flags, environment variables
 * and manifests: the whole string must be digits, so "-1", " 1",
 * "0x10" and "12x" are rejected instead of wrapping or truncating.
 */

#ifndef GSCALAR_COMMON_PARSE_HPP
#define GSCALAR_COMMON_PARSE_HPP

#include <cstdint>
#include <optional>
#include <string_view>

namespace gs
{

/** @p text as a decimal in [lo, hi]; empty on anything else, overflow
 *  included. */
constexpr std::optional<std::uint64_t>
parseDecimal(std::string_view text, std::uint64_t lo = 0,
             std::uint64_t hi = UINT64_MAX)
{
    if (text.empty())
        return std::nullopt;
    std::uint64_t v = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return std::nullopt;
        const std::uint64_t digit = std::uint64_t(c - '0');
        if (v > (UINT64_MAX - digit) / 10)
            return std::nullopt;
        v = v * 10 + digit;
    }
    if (v < lo || v > hi)
        return std::nullopt;
    return v;
}

} // namespace gs

#endif // GSCALAR_COMMON_PARSE_HPP
