// Stable byte-sequence hashing for the model checker's state store.
//
// std::hash over containers is not provided by the standard library and
// its scalar specializations are implementation-defined; the explorer
// needs a fast, well-mixed, deterministic hash over packed state bytes.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace ahb {

/// Word-at-a-time multiply-mix hash over a byte span.
///
/// Each step reads eight bytes (memcpy, so any alignment is fine) and
/// folds them in with one multiply; a short tail is zero-padded into a
/// last word. The length is folded into the seed, so inputs that differ
/// only in trailing zero bytes still hash apart. The splitmix64
/// finalizer gives full avalanche in both halves of the result: the
/// state stores mask the hash down to a power-of-two table (low bits)
/// and the concurrent store picks its shard from the high bits.
inline std::uint64_t hash_bytes(std::span<const std::byte> bytes) noexcept {
  constexpr std::uint64_t kMul1 = 0x9e3779b185ebca87ULL;
  constexpr std::uint64_t kMul2 = 0xc2b2ae3d27d4eb4fULL;
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t h = 0xcbf29ce484222325ULL ^ (n * kMul1);
  const auto mix = [&h](std::uint64_t word) {
    h = std::rotl(h + word * kMul2, 31) * kMul1;
  };
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    mix(word);
  }
  if (n != 0) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, n);
    mix(word);
  }
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// Convenience overload for trivially-copyable element arrays.
template <typename T>
  requires std::is_trivially_copyable_v<T>
std::uint64_t hash_span(std::span<const T> values) noexcept {
  return hash_bytes(std::as_bytes(values));
}

/// Combines two hashes (boost::hash_combine style, 64-bit constant).
inline std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

}  // namespace ahb
