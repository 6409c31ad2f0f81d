/**
 * @file
 * Strict parsing of the unsigned counts and real numbers that
 * command-line flags and codec specs carry.
 */

#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
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

/**
 * Parse @p text with parseCount() into @p out, bounded by the largest
 * value @p T holds. @return false, leaving @p out unchanged, on text
 * parseCount() rejects.
 */
template <typename T>
bool
parseCountInto(std::string_view text, T &out)
{
    std::optional<std::uint64_t> value =
        parseCount(text, std::numeric_limits<T>::max());
    if (value)
        out = static_cast<T>(*value);
    return value.has_value();
}

/**
 * Parse all of @p text as a finite decimal real. Whitespace, a leading
 * '+', trailing characters, NaN, infinities and values too large for a
 * double yield nothing, where std::stod would skip leading whitespace,
 * accept "0.5x" as 0.5 and take "nan"; std::strtod would also turn an
 * unparsable text into 0.
 */
inline std::optional<double>
parseReal(std::string_view text)
{
    double value = 0.0;
    const char *end = text.data() + text.size();
    auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc() || stop != end || !std::isfinite(value))
        return std::nullopt;
    return value;
}

} // namespace safemem
