/**
 * @file
 * Strict parsing of the unsigned counts that command-line flags and
 * codec specs carry.
 */

#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace safemem {

/**
 * Parse all of @p text as an unsigned decimal count no larger than
 * @p max. A sign, whitespace, trailing characters or a value past @p max
 * (overflow included) yield nothing, where std::stoull would wrap "-1" to
 * 2^64-1, accept "5x" as 5, and throw on overflow.
 */
inline std::optional<std::uint64_t>
parseCount(std::string_view text, std::uint64_t max)
{
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc() || stop != end || value > max)
        return std::nullopt;
    return value;
}

} // namespace safemem
