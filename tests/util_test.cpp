#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace ahb {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 28);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng{7};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng{3};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values hit
}

TEST(Rng, Uniform01Bounds) {
  Rng rng{11};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng{5};
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Rng rng{13};
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Hash, EqualInputsEqualHashes) {
  const std::vector<std::int16_t> a{1, 2, 3};
  const std::vector<std::int16_t> b{1, 2, 3};
  EXPECT_EQ(hash_span(std::span<const std::int16_t>{a}),
            hash_span(std::span<const std::int16_t>{b}));
}

TEST(Hash, SmallPerturbationChangesHash) {
  std::vector<std::int16_t> a{1, 2, 3, 4, 5};
  const auto base = hash_span(std::span<const std::int16_t>{a});
  for (std::size_t i = 0; i < a.size(); ++i) {
    auto mutated = a;
    mutated[i] ^= 1;
    EXPECT_NE(base, hash_span(std::span<const std::int16_t>{mutated}));
  }
}

TEST(Hash, ZeroInputsOfEveryLengthHashApart) {
  // Zero padding of the tail word must not make inputs that differ only
  // in trailing zero bytes collide: the length is part of the hash.
  const std::vector<std::byte> zeros(40);
  std::set<std::uint64_t> seen;
  for (std::size_t len = 0; len <= zeros.size(); ++len) {
    EXPECT_TRUE(seen.insert(hash_bytes({zeros.data(), len})).second)
        << "length " << len;
  }
}

TEST(Hash, EverySingleBitFlipChangesHash) {
  // 46 bytes = 23 int16 slots, the widest verification state: five
  // full words and a six-byte tail.
  std::vector<std::byte> input(46);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::byte>(i * 37 + 11);
  }
  const std::uint64_t base = hash_bytes(input);
  std::set<std::uint64_t> seen{base};
  for (std::size_t bit = 0; bit < input.size() * 8; ++bit) {
    auto flipped = input;
    flipped[bit / 8] ^= static_cast<std::byte>(1U << (bit % 8));
    EXPECT_TRUE(seen.insert(hash_bytes(flipped)).second) << "bit " << bit;
  }
}

TEST(Hash, StructuredSlotVectorsSpreadOverMaskedTable) {
  // State-like vectors: 23 int16 slots, a few of them counting through
  // small ranges (locations, clocks) and the rest constant. 2^14 of them
  // into a 2^12 table is 4 per bucket on average; a well-mixed hash
  // keeps the fullest bucket near 12, a weak one piles them up. Both
  // the low bits (the stores' table index) and the high bits (the
  // concurrent store's shard) must spread.
  constexpr std::size_t kBuckets = std::size_t{1} << 12;
  std::vector<int> low(kBuckets);
  std::vector<int> high(kBuckets);
  std::vector<std::int16_t> slots(23, 0);
  slots[5] = 7;
  slots[22] = -1;
  for (std::uint32_t i = 0; i < (1U << 14); ++i) {
    for (int d = 0; d < 7; ++d) {
      slots[static_cast<std::size_t>(3 * d)] =
          static_cast<std::int16_t>((i >> (2 * d)) & 3);
    }
    const std::uint64_t h = hash_span(std::span<const std::int16_t>{slots});
    ++low[h & (kBuckets - 1)];
    ++high[h >> 52];
  }
  EXPECT_LE(*std::max_element(low.begin(), low.end()), 16);
  EXPECT_LE(*std::max_element(high.begin(), high.end()), 16);
}

TEST(Hash, CombineIsOrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(Strings, Strprintf) {
  EXPECT_EQ(strprintf("x=%d y=%s", 3, "ok"), "x=3 y=ok");
  EXPECT_EQ(strprintf("%s", ""), "");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, Pad) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcde", 3), "abcde");
}

TEST(Strings, ParseCountTakesOnlyWholeInRangeNumbers) {
  std::uint64_t out = 7;
  EXPECT_TRUE(parse_count("42", 1, 100, out));
  EXPECT_EQ(out, 42u);
  for (const char* bad : {"", "0", "101", "-3", "+4", "2x", " 4", "abc",
                          "99999999999999999999999"}) {
    out = 7;
    EXPECT_FALSE(parse_count(bad, 1, 100, out)) << bad;
    EXPECT_EQ(out, 7u) << bad;
  }
}

}  // namespace
}  // namespace ahb
