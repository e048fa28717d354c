#include "util/strings.hpp"

#include <charconv>
#include <cstdarg>
#include <cstdio>

#include "util/contracts.hpp"

namespace ahb {

std::string strprintf(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  AHB_ASSERT(needed >= 0);
  std::string out(static_cast<std::size_t>(needed), '\0');
  // +1: vsnprintf writes the terminator; std::string owns capacity for it.
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string pad_left(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string{s};
  return std::string(width - s.size(), ' ') + std::string{s};
}

std::string pad_right(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string{s};
  return std::string{s} + std::string(width - s.size(), ' ');
}

bool parse_count(std::string_view text, std::uint64_t lo, std::uint64_t hi,
                 std::uint64_t& out) {
  const char* end = text.data() + text.size();
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value < lo || value > hi) {
    return false;
  }
  out = value;
  return true;
}

}  // namespace ahb
