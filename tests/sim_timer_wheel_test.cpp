// Hierarchical timer wheel (src/sim/timer_wheel.hpp) vs. a naive
// sorted-set oracle.
//
// The wheel's determinism contract — entries fire in exact
// (when, priority, arm-sequence) order, cancels are O(1) no-ops once
// popped — is what makes the heartbeat engine's event interleavings
// reproducible bit-for-bit, so it is pinned here against
// an oracle that keeps every pending entry in one ordered multiset.
// retime() of a live handle must be indistinguishable from cancel()
// followed by a fresh arm, so the oracle models it as erase plus insert
// under a fresh seq, keeping the payload. The
// deterministic cases target the wheel's structural edges: same tick
// ordering, cancels in a slot, in the ready drain and in the far heap
// (the newest entry of a list removed at once, older ones left dead),
// retimes that take the newest entry of a list out and file it back,
// a pop that finds nothing due, multi-level cascades, the slot-ring wrap
// where an entry lands at or behind the current slot index of its
// level, arms beyond the wheel's 64^6-tick span, posts (no id, never
// cancelled) mixed into the same lists as arms, same-tick lists long
// enough to span dozens of chunks, the bound on the cancelled entries a
// long run leaves behind, and retimes that leave an entry in place
// while its deadline moves on.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "sim/timer_wheel.hpp"
#include "util/rng.hpp"

namespace ahb {
namespace {

using Wheel = sim::TimerWheel<int>;
using Time = Wheel::Time;

// Arms a new entry: a retime of a handle that names none.
Wheel::Handle arm(Wheel& wheel, Time when, int priority, int payload) {
  return wheel.retime(Wheel::Handle{}, when, priority, payload);
}

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
  EXPECT_EQ(wheel.now(), horizon);
}

TEST(TimerWheel, FiresInWhenPrioritySeqOrder) {
  Wheel wheel;
  std::set<OracleEntry> oracle;
  // Same instant, mixed priorities, deliberately armed out of order.
  std::uint64_t seq = 1;
  for (const auto& [when, prio] : std::vector<std::pair<Time, int>>{
           {5, 1}, {5, 0}, {3, 1}, {5, 0}, {3, 0}, {7, 0}, {5, 1}}) {
    arm(wheel, when, prio, static_cast<int>(seq));
    oracle.insert({when, prio, seq, static_cast<int>(seq)});
    ++seq;
  }
  expect_same_drain(wheel, oracle, 10);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, CancelUnlinksAndInvalidatesHandles) {
  Wheel wheel;
  const auto a = arm(wheel, 10, 0, 1);
  const auto b = arm(wheel, 10, 0, 2);
  const auto c = arm(wheel, 20, 0, 3);
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
  arm(wheel, 5, 0, 1);
  const auto doomed = arm(wheel, 5, 0, 2);
  arm(wheel, 5, 0, 3);
  Wheel::Expired expired;
  ASSERT_TRUE(wheel.pop(5, expired));  // advances to tick 5, stages all
  EXPECT_EQ(expired.payload, 1);
  EXPECT_TRUE(wheel.cancel(doomed));  // mid-drain: dropped when met
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
    arm(wheel, when, 0, level);
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
  arm(wheel, 100, 0, 0);
  ASSERT_TRUE(wheel.pop(100, expired));
  ASSERT_EQ(wheel.now(), 100);

  arm(wheel, 4190, 0, 42);
  EXPECT_FALSE(wheel.pop(4189, expired));
  ASSERT_TRUE(wheel.pop(4190, expired));
  EXPECT_EQ(expired.when, 4190);
  EXPECT_EQ(expired.payload, 42);
}

TEST(TimerWheel, EmptyPopSkipsEmptySpansAndKeepsLaterEntriesLive) {
  Wheel wheel;
  arm(wheel, 1'000'000, 0, 7);
  Wheel::Expired expired;
  // Nothing due: must not fire or lose it.
  EXPECT_FALSE(wheel.pop(999'999, expired));
  EXPECT_EQ(wheel.now(), 999'999);
  ASSERT_TRUE(wheel.pop(1'000'000, expired));
  EXPECT_EQ(expired.when, 1'000'000);
  EXPECT_EQ(expired.payload, 7);
  // Empty wheel: the pop is a plain jump.
  EXPECT_FALSE(wheel.pop(Time{50'000'000'000}, expired));
  EXPECT_EQ(wheel.now(), Time{50'000'000'000});
}

TEST(TimerWheel, EmptyPopLeavesNowAtTheHorizon) {
  // A pop that finds nothing due by its horizon leaves now() there, or
  // where it was when the horizon is behind it, and what is filed at
  // the new now() fires next. Once only cancelled entries are left, an
  // empty pop drops them.
  Wheel wheel;
  Wheel::Expired expired;
  arm(wheel, 5000, 1, 1);
  EXPECT_FALSE(wheel.pop(4321, expired));  // past level-1 boundaries
  EXPECT_EQ(wheel.now(), 4321);
  EXPECT_FALSE(wheel.pop(100, expired));  // never back
  EXPECT_EQ(wheel.now(), 4321);
  wheel.post(4321, 1, 2);
  const Wheel::Handle retimed = arm(wheel, 4400, 1, 3);
  arm(wheel, 4400, 1, 4);
  ASSERT_TRUE(wheel.pop(4321, expired));
  EXPECT_EQ(expired.when, 4321);
  EXPECT_EQ(expired.payload, 2);
  EXPECT_EQ(wheel.now(), 4321);
  wheel.retime(retimed, 4321, 0, 3);  // earlier: taken out, due now
  ASSERT_TRUE(wheel.pop(4321, expired));
  EXPECT_EQ(expired.payload, 3);
  EXPECT_EQ(wheel.stored(), 3u);  // its old entry waits, dead
  ASSERT_TRUE(wheel.pop(4400, expired));
  EXPECT_EQ(expired.payload, 4);
  ASSERT_TRUE(wheel.pop(5000, expired));
  EXPECT_EQ(expired.payload, 1);

  const Wheel::Handle older = arm(wheel, 9000, 1, 5);
  const Wheel::Handle newer = arm(wheel, 9000, 1, 6);
  EXPECT_TRUE(wheel.cancel(older));  // left dead behind `newer`
  EXPECT_TRUE(wheel.cancel(newer));  // the newest: removed at once
  EXPECT_EQ(wheel.stored(), 1u);
  EXPECT_FALSE(wheel.pop(6000, expired));
  EXPECT_EQ(wheel.now(), 6000);
  EXPECT_EQ(wheel.stored(), 0u);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, RandomisedAgainstOracle) {
  // Seeded random arm/post/cancel/retime/drain campaign. Mixed scales
  // pick deltas from every level (biased small, occasionally past the
  // span), pop horizons land mid-slot and on boundaries, single pops
  // leave a tick half drained so the next operations act mid-tick —
  // posts at the current tick then append behind the drain cursor —
  // and armed entries are cancelled or retimed wherever they sit: in a
  // slot, in the ready drain or in the far heap, with posts filed
  // before and after them in the same lists. Retiming the latest arm at
  // its own (when, priority) takes it out and files it back at the tail
  // of the same list. Seeds 6-8 hold
  // about 30 entries pending and cancel or retime instead of arming or
  // posting more, so the dead pile up past the live ones and the sweep
  // compacts lists mid-campaign, mid-tick included. Retimes move an
  // entry later (a tick or two, or across cascades), keep it at its
  // tick, move it earlier, past the span or to the other priority, and
  // hit entries due at the current tick while it is half drained.
  constexpr Time kSpan = Time{1} << 36;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Rng rng{seed};
    const bool churn = seed > 5;
    Wheel wheel;
    std::set<OracleEntry> oracle;
    std::vector<std::pair<Wheel::Handle, OracleEntry>> live;
    std::uint64_t seq = 1;
    // Oracle side of retime(): erase the entry if still pending, insert
    // it again under a fresh seq, keeping the payload.
    const auto retime = [&](std::size_t pick, Time when, int prio) {
      auto& [handle, entry] = live[pick];
      oracle.erase(entry);
      handle = wheel.retime(handle, when, prio, entry.payload);
      entry = OracleEntry{when, prio, seq++, entry.payload};
      oracle.insert(entry);
    };
    const auto random_delta = [&] {
      switch (rng.below(5)) {
        case 0: return static_cast<Time>(rng.below(4));
        case 1: return static_cast<Time>(rng.below(64));
        case 2: return static_cast<Time>(rng.below(64 * 64));
        case 3: return static_cast<Time>(rng.below(64ull * 64 * 64 * 64));
        default: return kSpan + static_cast<Time>(rng.below(4096));
      }
    };
    for (int step = 0; step < 4000; ++step) {
      auto op = rng.below(17);
      if (churn && (op < 6 || op == 12 || op == 13) && oracle.size() > 30) {
        op = rng.below(2) == 0 ? 7 : 9;
      }
      if (op < 6) {  // arm
        const Time when = wheel.now() + random_delta();
        const int prio = static_cast<int>(rng.below(2));
        const int payload = static_cast<int>(seq);
        const auto handle = arm(wheel, when, prio, payload);
        const OracleEntry entry{when, prio, seq, payload};
        oracle.insert(entry);
        live.push_back({handle, entry});
        ++seq;
      } else if (op > 13 && !live.empty()) {  // retime
        std::size_t pick = rng.below(live.size());
        if (op == 16) {  // an entry due now, if any: mid-drain
          for (std::size_t i = 0; i < live.size(); ++i) {
            if (live[i].second.when == wheel.now()) pick = i;
          }
        }
        const OracleEntry& entry = live[pick].second;
        const Time from = std::max(entry.when, wheel.now());
        Time when = from;  // same tick
        switch (rng.below(6)) {
          case 0: when += 1 + static_cast<Time>(rng.below(3)); break;
          case 1:  // across cascades
            when += static_cast<Time>(rng.below(64ull * 64 * 64));
            break;
          case 2:  // earlier, not before now
            when = wheel.now() + static_cast<Time>(rng.below(
                                     static_cast<std::uint64_t>(
                                         from - wheel.now() + 1)));
            break;
          case 3:  // past the span
            when = wheel.now() + kSpan + static_cast<Time>(rng.below(64));
            break;
          default: break;
        }
        retime(pick, when,
               rng.below(5) == 0 ? 1 - entry.priority : entry.priority);
      } else if (op == 12 || op == 13) {  // post: anywhere, or at now
        const Time when = wheel.now() + (op == 12 ? random_delta() : 0);
        const int prio = static_cast<int>(rng.below(2));
        const int payload = static_cast<int>(seq);
        wheel.post(when, prio, payload);
        oracle.insert(OracleEntry{when, prio, seq, payload});
        ++seq;
      } else if (op < 8 && !live.empty()) {  // cancel a random entry
        const auto pick = rng.below(live.size());
        const auto [handle, entry] = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        const bool still = oracle.erase(entry) > 0;
        EXPECT_EQ(wheel.cancel(handle), still);
      } else if (op == 8 && !live.empty()) {  // retime the latest arm
        const OracleEntry& entry = live.back().second;
        const bool same = rng.below(2) == 0 && entry.when >= wheel.now();
        retime(live.size() - 1,
              same ? entry.when
                   : wheel.now() + static_cast<Time>(rng.below(200)),
              same ? entry.priority : static_cast<int>(rng.below(2)));
      } else if (op == 9 && !live.empty()) {  // retime a random entry
        const auto pick = rng.below(live.size());
        const Time when = std::max(live[pick].second.when, wheel.now()) +
                          static_cast<Time>(rng.below(3)) - 1;
        retime(pick, std::max(when, wheel.now()),
              static_cast<int>(rng.below(2)));
      } else if (op == 10) {  // pop one entry, leaving the tick mid-drain
        const Time horizon = wheel.now() + static_cast<Time>(rng.below(8));
        Wheel::Expired expired;
        if (wheel.pop(horizon, expired)) {
          ASSERT_FALSE(oracle.empty());
          const OracleEntry expect = *oracle.begin();
          oracle.erase(oracle.begin());
          ASSERT_EQ(expired.when, expect.when);
          ASSERT_EQ(expired.priority, expect.priority);
          ASSERT_EQ(expired.seq, expect.seq);
          ASSERT_EQ(expired.payload, expect.payload);
        } else if (!oracle.empty()) {
          ASSERT_GT(oracle.begin()->when, horizon);
        }
      } else {  // drain a random horizon ahead
        const Time horizon = wheel.now() + static_cast<Time>(rng.below(300));
        expect_same_drain(wheel, oracle, horizon);
        if (HasFatalFailure()) return;
      }
      ASSERT_EQ(wheel.pending(), oracle.size());
      ASSERT_GE(wheel.stored(), wheel.pending());
    }
    // Final full drain, past the far arms too.
    expect_same_drain(wheel, oracle, wheel.now() + (Time{1} << 38));
    EXPECT_TRUE(oracle.empty());
    EXPECT_EQ(wheel.pending(), 0u);
  }
}

TEST(TimerWheel, PostsTakeNoIds) {
  // A posted entry can never be cancelled, so it holds no id: with
  // thousands of posts pending the first arm still gets id 0, and
  // firing the posts retires nothing that a later arm could reuse.
  Wheel wheel;
  for (int i = 0; i < 5000; ++i) wheel.post(10 + i % 50, i % 2, i);
  EXPECT_EQ(wheel.pending(), 5000u);
  const Wheel::Handle first = arm(wheel, 20, 1, -1);
  EXPECT_EQ(first.id, 0u);
  EXPECT_EQ(wheel.pending(), 5001u);
  Wheel::Expired expired;
  std::size_t fired = 0;
  while (wheel.pop(100, expired)) ++fired;
  EXPECT_EQ(fired, 5001u);
  EXPECT_EQ(wheel.stored(), 0u);
  EXPECT_FALSE(wheel.cancel(first));  // fired: id 0 retired
  EXPECT_EQ(arm(wheel, 200, 1, -2).id, 0u);
  EXPECT_EQ(arm(wheel, 200, 1, -3).id, 1u);
}

TEST(TimerWheel, LongListsDrainAndSweepAcrossChunks) {
  // Same-tick lists thousands of entries long, dozens of chunks each.
  // First one is drained a pop at a time while posts append behind the
  // cursor. Then one whose older half arrives by cascade after its
  // newer half was filed straight into level 0 (so it is sorted once,
  // across chunks) is drained part way, most of its armed entries are
  // cancelled so a sweep compacts it from the cursor, and posts append
  // behind the compacted tail while the rest drains. Every pop is
  // checked against the oracle.
  Wheel wheel;
  std::set<OracleEntry> oracle;
  std::vector<std::pair<Wheel::Handle, OracleEntry>> armed;
  std::uint64_t seq = 1;
  const auto post = [&](Time when, int prio) {
    const int payload = static_cast<int>(seq);
    wheel.post(when, prio, payload);
    oracle.insert(OracleEntry{when, prio, seq++, payload});
  };
  const auto arm_at = [&](Time when, int prio) {
    const OracleEntry entry{when, prio, seq, static_cast<int>(seq)};
    armed.push_back({arm(wheel, when, prio, entry.payload), entry});
    oracle.insert(entry);
    ++seq;
  };
  const auto pop_one = [&](Time horizon) {
    Wheel::Expired expired;
    if (!wheel.pop(horizon, expired)) return false;
    if (oracle.empty()) {
      ADD_FAILURE() << "wheel fired more than the oracle";
      return false;
    }
    const OracleEntry expect = *oracle.begin();
    oracle.erase(oracle.begin());
    EXPECT_EQ(expired.when, expect.when);
    EXPECT_EQ(expired.priority, expect.priority);
    EXPECT_EQ(expired.seq, expect.seq);
    EXPECT_EQ(expired.payload, expect.payload);
    return true;
  };

  constexpr Time kTick = 100;
  for (int i = 0; i < 1500; ++i) post(kTick, i % 3 == 0 ? 1 : 0);
  int fired = 0;
  while (pop_one(kTick)) {
    ++fired;
    if (fired <= 1500) post(kTick, fired % 2);  // at now: behind the cursor
    ASSERT_EQ(wheel.pending(), oracle.size());
  }
  EXPECT_EQ(fired, 3000);
  EXPECT_TRUE(oracle.empty());
  EXPECT_EQ(wheel.stored(), 0u);

  constexpr Time kLate = Time{1} << 14;  // a level-2 slot boundary
  for (int i = 0; i < 1200; ++i) {  // level 2, cascaded at kLate
    if (i % 5 == 0) post(kLate, 1); else arm_at(kLate, 1);
  }
  ASSERT_FALSE(pop_one(kLate - 10));
  for (int i = 0; i < 1200; ++i) {  // level 0, ahead of the cascade
    if (i % 5 == 0) post(kLate, 1); else arm_at(kLate, 1);
  }
  for (int i = 0; i < 301; ++i) ASSERT_TRUE(pop_one(kLate));
  std::size_t cancelled = 0;
  for (const auto& [handle, entry] : armed) {
    if (entry.seq % 4 == 0) continue;
    const bool still = oracle.erase(entry) > 0;
    EXPECT_EQ(wheel.cancel(handle), still);
    cancelled += still ? 1 : 0;
    ASSERT_LE(wheel.stored(), 2 * wheel.pending() + 64);
  }
  EXPECT_GT(cancelled, 1000u);  // enough dead to force sweeps
  ASSERT_EQ(wheel.pending(), oracle.size());
  fired = 0;
  while (pop_one(kLate)) {
    if (++fired % 10 == 0) post(kLate, fired % 20 == 0 ? 0 : 1);
  }
  EXPECT_TRUE(oracle.empty());
  EXPECT_EQ(wheel.pending(), 0u);
  EXPECT_EQ(wheel.stored(), 0u);
}

TEST(TimerWheel, RetimeTakeOutsFireExactlyLikeCancelThenArm) {
  // The same script on two wheels: one retimes, the other cancels and
  // arms. Every retime here takes its entry out and files it anew: the
  // newest entry of its list — in a slot, moved to another list, in a
  // coarse slot with a moved deadline, and in the ready drain mid-tick —
  // which leaves no dead entry, and an entry with a newer one behind it
  // that changes priority or moves earlier, which leaves one. Both
  // wheels must fire identical streams and hold the same number of
  // entries throughout.
  Wheel a;
  Wheel b;
  const auto both = [&](Time when, int prio, int payload) {
    return std::pair{arm(a, when, prio, payload), arm(b, when, prio, payload)};
  };
  const auto retime = [&](std::pair<Wheel::Handle, Wheel::Handle>& h,
                          Time when, int prio, int payload) {
    h.first = a.retime(h.first, when, prio, payload);
    b.cancel(h.second);
    h.second = arm(b, when, prio, payload);
    EXPECT_EQ(h.first.seq, h.second.seq);
    EXPECT_EQ(a.stored(), b.stored());
  };
  auto x = both(10, 1, 1);
  auto y = both(10, 1, 2);
  retime(y, 10, 1, 2);  // newest of its list: back at its tail
  EXPECT_EQ(a.stored(), 2u);
  retime(x, 10, 0, 1);  // y behind it, new priority: another list
  EXPECT_EQ(a.stored(), 3u);  // x's old entry waits, dead
  auto z = both(10, 1, 3);
  auto u = both(200, 1, 4);  // level 1: slot [192, 256)
  retime(z, 12, 1, 3);  // newest, moved deadline: another list
  retime(z, 12, 1, 3);  // and back at the tail of its new one
  retime(u, 230, 1, 4);  // same coarse slot, new deadline
  auto v = both(40, 1, 5);
  both(40, 1, 6);
  retime(v, 20, 1, 5);  // earlier, with a newer entry behind it
  both(10, 1, 7);

  Wheel::Expired ea;
  Wheel::Expired eb;
  ASSERT_TRUE(a.pop(10, ea));
  ASSERT_TRUE(b.pop(10, eb));
  EXPECT_EQ(ea.payload, 1);  // priority 0 first
  // Mid-tick: arm at the current tick, then retime it while the drain
  // cursor sits in the same list.
  auto w = both(10, 1, 8);
  retime(w, 10, 1, 8);
  std::vector<int> order;
  while (true) {
    const bool fa = a.pop(300, ea);
    ASSERT_EQ(fa, b.pop(300, eb));
    if (!fa) break;
    EXPECT_EQ(ea.when, eb.when);
    EXPECT_EQ(ea.priority, eb.priority);
    EXPECT_EQ(ea.seq, eb.seq);
    EXPECT_EQ(ea.payload, eb.payload);
    EXPECT_EQ(a.stored(), b.stored());
    order.push_back(ea.payload);
  }
  EXPECT_EQ(order, (std::vector<int>{2, 7, 8, 3, 5, 6, 4}));
  EXPECT_EQ(a.now(), 300);
  EXPECT_EQ(a.pending(), 0u);
  EXPECT_EQ(a.stored(), 0u);
}

TEST(TimerWheel, RetimeFiresExactlyLikeCancelThenArm) {
  // The same seeded script on two wheels: one retimes, the other
  // cancels and arms. Twelve handles share a few ticks with posts, so
  // retimed entries are rarely the newest of their list and stay in
  // place: later by a tick or across cascades, within their own tick
  // (a level-0 list is then sorted again when its tick comes), earlier,
  // to the other priority, past the span, and while their tick is half
  // drained. Both wheels must fire identical streams.
  constexpr Time kSpan = Time{1} << 36;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Rng rng{seed};
    Wheel a;
    Wheel b;
    std::vector<std::pair<Wheel::Handle, Wheel::Handle>> handles;
    std::vector<Time> due;
    for (int i = 0; i < 12; ++i) {
      const Time when = 1 + static_cast<Time>(rng.below(40));
      handles.push_back({arm(a, when, 1, i), arm(b, when, 1, i)});
      due.push_back(when);
    }
    const auto same_pop = [&](Time horizon) {
      Wheel::Expired ea;
      Wheel::Expired eb;
      const bool fa = a.pop(horizon, ea);
      EXPECT_EQ(fa, b.pop(horizon, eb));
      if (!fa) return false;
      EXPECT_EQ(ea.when, eb.when);
      EXPECT_EQ(ea.priority, eb.priority);
      EXPECT_EQ(ea.seq, eb.seq);
      EXPECT_EQ(ea.payload, eb.payload);
      return true;
    };
    for (int step = 0; step < 3000; ++step) {
      const auto op = rng.below(10);
      const Time now = a.now();
      if (op < 5) {
        const auto i = rng.below(handles.size());
        Time when = std::max(due[i], now);
        switch (rng.below(6)) {
          case 0: when += 1 + static_cast<Time>(rng.below(3)); break;
          case 1: when += static_cast<Time>(rng.below(64 * 64 * 4)); break;
          case 2: when = now + static_cast<Time>(rng.below(3)); break;
          case 3: when += kSpan; break;
          default: break;  // same tick
        }
        const int prio = rng.below(6) == 0 ? 0 : 1;
        auto& [ha, hb] = handles[i];
        ha = a.retime(ha, when, prio, static_cast<int>(i));
        b.cancel(hb);
        hb = arm(b, when, prio, static_cast<int>(i));
        EXPECT_EQ(ha.seq, hb.seq);
        due[i] = when;
      } else if (op < 7) {
        const Time when = now + static_cast<Time>(rng.below(20));
        const int prio = static_cast<int>(rng.below(2));
        a.post(when, prio, -1);
        b.post(when, prio, -1);
      } else if (op < 9) {
        same_pop(now + static_cast<Time>(rng.below(4)));
      } else {
        const Time horizon = now + static_cast<Time>(rng.below(30));
        while (same_pop(horizon)) {}
      }
      ASSERT_EQ(a.pending(), b.pending());
      ASSERT_EQ(a.now(), b.now());
      if (HasFailure()) return;
    }
    while (same_pop(Time{1} << 50)) {}  // far past the farthest retime
    EXPECT_EQ(a.pending(), 0u);
  }
}

TEST(TimerWheel, LaterRetimesLeaveNoDeadEntries) {
  // The heartbeat engine's steady state: every deadline is pushed later
  // before it comes due, on most ticks, among posts that fire. A retime
  // later leaves the entry in place (or moves the newest of a list), so
  // no entry is ever dead, and the deadlines, once left alone, fire at
  // their last deadlines.
  constexpr int kHandles = 200;
  Wheel wheel;
  std::vector<Wheel::Handle> handles(kHandles);
  std::vector<Time> due(kHandles, 0);
  for (int i = 0; i < kHandles; ++i) {
    due[i] = 3 + i % 50;
    handles[i] = arm(wheel, due[i], 1, i);
  }
  Wheel::Expired expired;
  for (Time t = 1; t <= 20'000; ++t) {
    while (wheel.pop(t, expired)) ASSERT_EQ(expired.payload, -1);
    for (int i = 0; i < kHandles; ++i) {
      if ((t + i) % 3 == 0) continue;
      // Within a tick or two, or a level or two ahead.
      due[i] = std::max(due[i] + 1, t + 3 + (t * 7 + i) % (i < 20 ? 3 : 5000));
      handles[i] = wheel.retime(handles[i], due[i], 1, i);
      ASSERT_EQ(wheel.stored(), wheel.pending());
    }
    wheel.post(t + 1 + t % 70, static_cast<int>(t % 2), -1);
    ASSERT_EQ(wheel.stored(), wheel.pending());
  }
  std::vector<std::pair<Time, int>> expect;
  for (int i = 0; i < kHandles; ++i) expect.push_back({due[i], i});
  std::vector<std::pair<Time, int>> fired;
  while (wheel.pop(Time{1} << 20, expired)) {
    if (expired.payload >= 0) fired.push_back({expired.when, expired.payload});
  }
  std::sort(expect.begin(), expect.end());
  std::sort(fired.begin(), fired.end());
  EXPECT_EQ(fired, expect);
  EXPECT_EQ(wheel.stored(), 0u);
}

TEST(TimerWheel, CancelledEntriesStayBounded) {
  // Lazy cancel leaves a dead entry behind until its tick. A deadline
  // re-armed far ahead on every step (a node on a very slow clock)
  // would pile them up without the sweep; with it, stored() stays
  // within a constant of the few live entries — in the slots and in
  // the far heap alike.
  Wheel wheel;
  std::vector<Wheel::Handle> handles;
  Wheel::Expired expired;
  std::size_t most = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const Time ahead = i % 5 == 0 ? (Time{1} << 37) : 1'000'000;
    handles.push_back(arm(wheel, wheel.now() + ahead + i % 7, i % 2, i));
    if (handles.size() > 3) {
      EXPECT_TRUE(wheel.cancel(handles.front()));
      handles.erase(handles.begin());
    }
    if (i % 1000 == 0) {
      EXPECT_FALSE(wheel.pop(wheel.now() + 10, expired));
    }
    most = std::max(most, wheel.stored());
  }
  EXPECT_EQ(wheel.pending(), 3u);
  EXPECT_LE(most, 2 * 3 + 64 + 1u);
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
    arm(wheel, when, 0, static_cast<int>(seq));
    oracle.insert({when, 0, seq, static_cast<int>(seq)});
    ++seq;
  }
  const auto doomed = arm(wheel, Time{3} << 40, 1, 99);
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
        live.push_back({arm(wheel, when, prio, payload),
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
