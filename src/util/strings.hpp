// Small string helpers shared by trace printing, benchmark tables and
// command-line parsing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ahb {

/// printf-style formatting into a std::string.
[[gnu::format(printf, 1, 2)]] std::string strprintf(const char* fmt, ...);

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Left-pads (right-aligns) `s` to `width` with spaces.
std::string pad_left(std::string_view s, std::size_t width);

/// Right-pads (left-aligns) `s` to `width` with spaces.
std::string pad_right(std::string_view s, std::size_t width);

/// Parses a whole decimal argument into `out`. Fails (leaving `out`
/// untouched) on an empty value, a sign, trailing characters, or a value
/// outside [lo, hi].
bool parse_count(std::string_view text, std::uint64_t lo, std::uint64_t hi,
                 std::uint64_t& out);

}  // namespace ahb
