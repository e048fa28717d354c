#include <gtest/gtest.h>

#include "mc/store.hpp"
#include "util/rng.hpp"

namespace ahb::mc {
namespace {

ta::State make_state(std::initializer_list<int> values) {
  ta::State s(values.size());
  std::size_t i = 0;
  for (int v : values) s[i++] = static_cast<ta::Slot>(v);
  return s;
}

TEST(StateStore, InternReturnsStableIndices) {
  StateStore store{3};
  const auto [i0, new0] = store.intern(make_state({1, 2, 3}));
  const auto [i1, new1] = store.intern(make_state({4, 5, 6}));
  const auto [i2, new2] = store.intern(make_state({1, 2, 3}));
  EXPECT_TRUE(new0);
  EXPECT_TRUE(new1);
  EXPECT_FALSE(new2);
  EXPECT_EQ(i0, i2);
  EXPECT_NE(i0, i1);
  EXPECT_EQ(store.size(), 2u);
}

TEST(StateStore, GetRoundTrips) {
  StateStore store{4};
  const auto s = make_state({7, -3, 0, 127});
  const auto [index, _] = store.intern(s);
  EXPECT_EQ(store.get(index), s);
}

TEST(StateStore, SurvivesTableGrowth) {
  StateStore store{2};
  Rng rng{99};
  std::vector<ta::State> states;
  for (int i = 0; i < 20000; ++i) {
    states.push_back(make_state({static_cast<int>(i % 999),
                                 static_cast<int>(i / 999)}));
    store.intern(states.back());
  }
  EXPECT_EQ(store.size(), 20000u);
  // Every state keeps its index and round-trips after many rehashes.
  for (std::size_t i = 0; i < states.size(); i += 117) {
    const auto [index, fresh] = store.intern(states[i]);
    EXPECT_FALSE(fresh);
    EXPECT_EQ(index, i);
    EXPECT_EQ(store.get(index), states[i]);
  }
  EXPECT_EQ(store.size(), 20000u);
}

TEST(StateStore, RawSpansStayValidAcrossGrowth) {
  // The arena never moves an entry, so a borrowed span outlives any
  // number of later interns.
  StateStore store{2};
  const auto [first, _] = store.intern(make_state({-1, -1}));
  const ta::Slot* data = store.raw(first).data();
  for (int i = 0; i < 100000; ++i) {
    store.intern(make_state({i % 1000, i / 1000}));
  }
  EXPECT_EQ(store.raw(first).data(), data);
  EXPECT_EQ(data[0], -1);
  EXPECT_EQ(data[1], -1);
}

// A lone store indexes every 32-bit value but kInvalidIndex; the 26-bit
// offsets of ConcurrentStateStore are a limit of its shard encoding only.
static_assert(StateStore::kMaxStates == 0xffffffffu);

TEST(StateStore, ArenaSegmentsCoverEveryIndex) {
  struct Case {
    std::uint32_t offset;
    int segment;
    std::uint32_t within;
  };
  constexpr std::uint32_t seg0 = StateStore::kSeg0Entries;
  constexpr int bits = StateStore::kSeg0Bits;
  const Case cases[] = {
      {0, 0, 0},
      {seg0 - 1, 0, seg0 - 1},
      {seg0, 1, 0},
      {(1u << 26) - 1, 26 - bits, (1u << 25) - 1},
      {1u << 26, 27 - bits, 0},
      {0xfffffffeu, 32 - bits, 0x7ffffffeu},
  };
  for (const Case& c : cases) {
    const auto [segment, within] = StateStore::segment_of(c.offset);
    EXPECT_EQ(segment, c.segment) << c.offset;
    EXPECT_EQ(within, c.within) << c.offset;
    EXPECT_LT(segment, StateStore::kMaxSegments) << c.offset;
    EXPECT_LT(within, StateStore::segment_entries(segment)) << c.offset;
  }
  // Consecutive segments tile the offsets without gaps: the last offset
  // of each segment is followed by offset 0 of the next.
  std::uint64_t start = 0;
  for (int seg = 0; seg < StateStore::kMaxSegments; ++seg) {
    EXPECT_EQ(StateStore::segment_of(static_cast<std::uint32_t>(start)),
              std::make_pair(seg, 0u));
    start += StateStore::segment_entries(seg);
  }
  EXPECT_EQ(start, std::uint64_t{1} << 32);
}

TEST(StateStore, RawSpanMatches) {
  StateStore store{3};
  const auto [index, _] = store.intern(make_state({9, 8, 7}));
  const auto raw = store.raw(index);
  ASSERT_EQ(raw.size(), 3u);
  EXPECT_EQ(raw[0], 9);
  EXPECT_EQ(raw[1], 8);
  EXPECT_EQ(raw[2], 7);
}

TEST(StateStore, MemoryGrowsWithContent) {
  StateStore store{8};
  const auto before = store.memory_bytes();
  for (int i = 0; i < 1000; ++i) {
    store.intern(make_state({i, 0, 0, 0, 0, 0, 0, 0}));
  }
  EXPECT_GT(store.memory_bytes(), before);
}

}  // namespace
}  // namespace ahb::mc
