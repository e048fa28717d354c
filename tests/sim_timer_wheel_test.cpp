// Hierarchical timer wheel (src/sim/timer_wheel.hpp) vs. a naive
// sorted-set oracle.
//
// The wheel's determinism contract — entries fire in exact
// (when, priority, arm-sequence) order, cancels are O(1) no-ops once
// popped — is what makes the heartbeat engine's event interleavings
// reproducible bit-for-bit, so it is pinned here against
// an oracle that keeps every pending entry in one ordered multiset.
// The deterministic cases target the wheel's structural edges: same
// tick ordering, cancel-in-ready laziness, multi-level cascades, and
// the slot-ring wrap where an entry lands at or behind the current
// slot index of its level, and arms beyond the wheel's 64^6-tick span.
#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "sim/timer_wheel.hpp"
#include "util/rng.hpp"

namespace ahb {
namespace {

using Wheel = sim::TimerWheel<int>;
using Time = Wheel::Time;

// Oracle entry: the same (when, priority, seq) key the wheel promises,
// with the payload riding along.
struct OracleEntry {
  Time when;
  int priority;
  std::uint64_t seq;
  int payload;
  bool operator<(const OracleEntry& other) const {
    return std::tie(when, priority, seq) <
           std::tie(other.when, other.priority, other.seq);
  }
};

// Drains both structures to `horizon` and requires identical streams.
void expect_same_drain(Wheel& wheel, std::set<OracleEntry>& oracle,
                       Time horizon) {
  Wheel::Expired expired;
  while (wheel.pop(horizon, expired)) {
    ASSERT_FALSE(oracle.empty()) << "wheel fired more than the oracle";
    const OracleEntry expect = *oracle.begin();
    ASSERT_LE(expect.when, horizon);
    oracle.erase(oracle.begin());
    EXPECT_EQ(expired.when, expect.when);
    EXPECT_EQ(expired.priority, expect.priority);
    EXPECT_EQ(expired.seq, expect.seq);
    EXPECT_EQ(expired.payload, expect.payload);
  }
  if (!oracle.empty()) {
    EXPECT_GT(oracle.begin()->when, horizon)
        << "oracle still due at " << oracle.begin()->when;
  }
  wheel.advance_to(horizon);
  EXPECT_EQ(wheel.now(), horizon);
}

TEST(TimerWheel, FiresInWhenPrioritySeqOrder) {
  Wheel wheel;
  std::set<OracleEntry> oracle;
  // Same instant, mixed priorities, deliberately armed out of order.
  std::uint64_t seq = 1;
  for (const auto& [when, prio] : std::vector<std::pair<Time, int>>{
           {5, 1}, {5, 0}, {3, 1}, {5, 0}, {3, 0}, {7, 0}, {5, 1}}) {
    wheel.arm(when, prio, static_cast<int>(seq));
    oracle.insert({when, prio, seq, static_cast<int>(seq)});
    ++seq;
  }
  expect_same_drain(wheel, oracle, 10);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, CancelUnlinksAndInvalidatesHandles) {
  Wheel wheel;
  const auto a = wheel.arm(10, 0, 1);
  const auto b = wheel.arm(10, 0, 2);
  const auto c = wheel.arm(20, 0, 3);
  EXPECT_TRUE(wheel.cancel(b));
  EXPECT_FALSE(wheel.cancel(b));  // already cancelled
  EXPECT_FALSE(wheel.cancel(Wheel::Handle{}));  // invalid handle no-op

  Wheel::Expired expired;
  ASSERT_TRUE(wheel.pop(30, expired));
  EXPECT_EQ(expired.payload, 1);
  EXPECT_FALSE(wheel.cancel(a));  // already fired
  ASSERT_TRUE(wheel.pop(30, expired));
  EXPECT_EQ(expired.payload, 3);
  EXPECT_FALSE(wheel.pop(30, expired));
  // c's slot was recycled; its stale handle must not cancel anything.
  EXPECT_FALSE(wheel.cancel(c));
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, CancelWhileStagedInReadyHeapIsLazy) {
  Wheel wheel;
  wheel.arm(5, 0, 1);
  const auto doomed = wheel.arm(5, 0, 2);
  wheel.arm(5, 0, 3);
  Wheel::Expired expired;
  ASSERT_TRUE(wheel.pop(5, expired));  // advances to tick 5, stages all
  EXPECT_EQ(expired.payload, 1);
  EXPECT_TRUE(wheel.cancel(doomed));  // now Location::Ready: lazy discard
  ASSERT_TRUE(wheel.pop(5, expired));
  EXPECT_EQ(expired.payload, 3);
  EXPECT_FALSE(wheel.pop(5, expired));
}

TEST(TimerWheel, CascadesAcrossLevels) {
  // One entry per level: deltas 1, 64^1+1, 64^2+1, ... exercise every
  // cascade depth, including re-filing through intermediate levels.
  Wheel wheel;
  std::set<OracleEntry> oracle;
  std::uint64_t seq = 1;
  Time span = 1;
  for (int level = 0; level < 6; ++level) {
    const Time when = span + 1;
    wheel.arm(when, 0, level);
    oracle.insert({when, 0, seq++, level});
    span *= 64;
  }
  expect_same_drain(wheel, oracle, Time{64} * 64 * 64 * 64 * 64 + 2);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, SlotRingWrapDoesNotHideEntries) {
  // now = 100 sits in level-1 slot 1 ([64, 128)); when = 4190 has
  // delta 4090 < 64^2, so it files at level 1 — and its slot index
  // (4190 >> 6) & 63 == 1 collides with the current slot, one full
  // ring revolution ahead. The scan must still find and fire it.
  Wheel wheel;
  Wheel::Expired expired;
  wheel.arm(100, 0, 0);
  ASSERT_TRUE(wheel.pop(100, expired));
  ASSERT_EQ(wheel.now(), 100);

  wheel.arm(4190, 0, 42);
  EXPECT_FALSE(wheel.pop(4189, expired));
  ASSERT_TRUE(wheel.pop(4190, expired));
  EXPECT_EQ(expired.when, 4190);
  EXPECT_EQ(expired.payload, 42);
}

TEST(TimerWheel, AdvanceToSkipsEmptySpansAndKeepsLaterEntriesLive) {
  Wheel wheel;
  wheel.arm(1'000'000, 0, 7);
  wheel.advance_to(999'999);  // nothing due: must not fire or lose it
  EXPECT_EQ(wheel.now(), 999'999);
  Wheel::Expired expired;
  ASSERT_TRUE(wheel.pop(1'000'000, expired));
  EXPECT_EQ(expired.when, 1'000'000);
  EXPECT_EQ(expired.payload, 7);
  // Empty wheel: advance is a plain jump.
  wheel.advance_to(Time{50'000'000'000});
  EXPECT_EQ(wheel.now(), Time{50'000'000'000});
}

TEST(TimerWheel, RandomisedAgainstOracle) {
  // Seeded random arm/cancel/rearm/drain campaign. Mixed scales pick
  // deltas from every level (biased small, occasionally huge), pop
  // horizons land mid-slot and on boundaries, and a third of armed
  // entries are cancelled — from the wheel or from the ready heap.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Rng rng{seed};
    Wheel wheel;
    std::set<OracleEntry> oracle;
    std::vector<std::pair<Wheel::Handle, OracleEntry>> live;
    std::uint64_t seq = 1;
    for (int step = 0; step < 3000; ++step) {
      const auto op = rng.below(10);
      if (op < 6) {  // arm
        Time delta;
        switch (rng.below(4)) {
          case 0: delta = static_cast<Time>(rng.below(4)); break;
          case 1: delta = static_cast<Time>(rng.below(64)); break;
          case 2: delta = static_cast<Time>(rng.below(64 * 64)); break;
          default:
            delta = static_cast<Time>(rng.below(64ull * 64 * 64 * 64));
            break;
        }
        const Time when = wheel.now() + delta;
        const int prio = static_cast<int>(rng.below(2));
        const int payload = static_cast<int>(seq);
        const auto handle = wheel.arm(when, prio, payload);
        const OracleEntry entry{when, prio, seq, payload};
        oracle.insert(entry);
        live.push_back({handle, entry});
        ++seq;
      } else if (op < 8 && !live.empty()) {  // cancel a random live entry
        const auto pick = rng.below(live.size());
        const auto [handle, entry] = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        const bool still = oracle.erase(entry) > 0;
        EXPECT_EQ(wheel.cancel(handle), still);
      } else {  // drain a random horizon ahead
        const Time horizon = wheel.now() + static_cast<Time>(rng.below(300));
        Wheel::Expired expired;
        while (wheel.pop(horizon, expired)) {
          ASSERT_FALSE(oracle.empty());
          const OracleEntry expect = *oracle.begin();
          ASSERT_LE(expect.when, horizon);
          oracle.erase(oracle.begin());
          ASSERT_EQ(expired.when, expect.when);
          ASSERT_EQ(expired.priority, expect.priority);
          ASSERT_EQ(expired.seq, expect.seq);
          ASSERT_EQ(expired.payload, expect.payload);
        }
        if (!oracle.empty()) {
          ASSERT_GT(oracle.begin()->when, horizon);
        }
        wheel.advance_to(horizon);
        ASSERT_EQ(wheel.now(), horizon);
      }
      ASSERT_EQ(wheel.pending(), oracle.size());
    }
    // Final full drain.
    const Time far = wheel.now() + Time{64} * 64 * 64 * 64 * 64;
    std::set<OracleEntry> rest;
    rest.swap(oracle);
    Wheel::Expired expired;
    for (const auto& expect : rest) {
      ASSERT_TRUE(wheel.pop(far, expired));
      ASSERT_EQ(expired.when, expect.when);
      ASSERT_EQ(expired.seq, expect.seq);
    }
    EXPECT_FALSE(wheel.pop(far, expired));
    EXPECT_EQ(wheel.pending(), 0u);
  }
}

TEST(TimerWheel, ArmsBeyondTheSpanWaitAndFireOnTime) {
  // 64^6 = 2^36 ticks is the wheel span; later arms (a crash scheduled
  // at 2^40, a timer behind a clock that leapt back) wait outside the
  // wheel and must still fire exactly on time, in order, and cancel.
  constexpr Time kSpan = Time{1} << 36;
  Wheel wheel;
  std::set<OracleEntry> oracle;
  std::uint64_t seq = 1;
  for (const Time when : {Time{1} << 40, kSpan, kSpan - 1, kSpan + 1,
                          Time{1} << 40, Time{1} << 62, Time{5}}) {
    wheel.arm(when, 0, static_cast<int>(seq));
    oracle.insert({when, 0, seq, static_cast<int>(seq)});
    ++seq;
  }
  const auto doomed = wheel.arm(Time{3} << 40, 1, 99);
  EXPECT_TRUE(wheel.cancel(doomed));
  EXPECT_FALSE(wheel.cancel(doomed));
  expect_same_drain(wheel, oracle, Time{1} << 39);
  expect_same_drain(wheel, oracle, Time{1} << 40);
  EXPECT_EQ(wheel.pending(), 1u);  // the 2^62 arm
  expect_same_drain(wheel, oracle, Time{1} << 62);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, RandomisedFarArmsAgainstOracle) {
  // Arms straddling the span boundary and far past it, cancels of
  // far-waiting entries, and drains that jump whole spans at once.
  constexpr Time kSpan = Time{1} << 36;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Rng rng{seed};
    Wheel wheel;
    std::set<OracleEntry> oracle;
    std::vector<std::pair<Wheel::Handle, OracleEntry>> live;
    std::uint64_t seq = 1;
    for (int step = 0; step < 2000; ++step) {
      const auto op = rng.below(10);
      if (op < 6) {  // arm
        Time delta;
        switch (rng.below(3)) {
          case 0: delta = static_cast<Time>(rng.below(64 * 64)); break;
          case 1: delta = kSpan - 4 + static_cast<Time>(rng.below(8)); break;
          default: delta = static_cast<Time>(rng.below(Time{1} << 40)); break;
        }
        const Time when = wheel.now() + delta;
        const int prio = static_cast<int>(rng.below(2));
        const int payload = static_cast<int>(seq);
        live.push_back({wheel.arm(when, prio, payload),
                        OracleEntry{when, prio, seq, payload}});
        oracle.insert(live.back().second);
        ++seq;
      } else if (op < 8 && !live.empty()) {  // cancel
        const auto pick = rng.below(live.size());
        const auto [handle, entry] = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        EXPECT_EQ(wheel.cancel(handle), oracle.erase(entry) > 0);
      } else {  // drain, sometimes a whole span ahead
        const Time reach = rng.below(2) == 0 ? 300 : Time{1} << 37;
        const Time horizon =
            wheel.now() + static_cast<Time>(rng.below(
                              static_cast<std::uint64_t>(reach)));
        expect_same_drain(wheel, oracle, horizon);
        if (HasFatalFailure()) return;
      }
      ASSERT_EQ(wheel.pending(), oracle.size());
    }
    expect_same_drain(wheel, oracle, wheel.now() + (Time{1} << 41));
    EXPECT_TRUE(oracle.empty());
    EXPECT_EQ(wheel.pending(), 0u);
  }
}

}  // namespace
}  // namespace ahb
