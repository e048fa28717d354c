#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "models/heartbeat_model.hpp"
#include "ta/network.hpp"
#include "successors.hpp"

namespace ahb::ta {
namespace {

/// Counts successors of the initial state by kind.
struct Kinds {
  int ticks = 0;
  int internals = 0;
  int syncs = 0;
  int broadcasts = 0;
};

Kinds kinds_of(const Network& net, const State& s) {
  Kinds k;
  for (const auto& t : test::successors(net, s)) {
    switch (t.kind) {
      case Transition::Kind::Tick: ++k.ticks; break;
      case Transition::Kind::Internal: ++k.internals; break;
      case Transition::Kind::Sync: ++k.syncs; break;
      case Transition::Kind::Broadcast: ++k.broadcasts; break;
    }
  }
  return k;
}

TEST(Network, TickAdvancesClocksUpToCap) {
  Network net;
  const auto a = net.add_automaton("a");
  net.add_location(a, "idle");
  const auto c = net.add_clock("c", 3);
  net.freeze();

  State s = net.initial_state();
  for (int expected = 1; expected <= 5; ++expected) {
    auto succ = test::successors(net, s);
    ASSERT_EQ(succ.size(), 1u);
    EXPECT_EQ(succ[0].kind, Transition::Kind::Tick);
    s = succ[0].target;
    EXPECT_EQ(StateView(net, s).clk(c), std::min(expected, 3));
  }
}

TEST(Network, InvariantBlocksTick) {
  Network net;
  const auto a = net.add_automaton("a");
  const auto c = net.add_clock("c", 10);
  net.add_location(a, "bounded", LocKind::Normal,
                   [c](const StateView& v) { return v.clk(c) <= 2; });
  net.freeze();

  State s = net.initial_state();
  s = test::successors(net, s)[0].target;  // c=1
  s = test::successors(net, s)[0].target;  // c=2
  // A tick to 3 would break the invariant.
  EXPECT_TRUE(test::successors(net, s).empty());
}

TEST(Network, UrgentLocationFreezesTime) {
  Network net;
  const auto a = net.add_automaton("a");
  net.add_location(a, "urgent", LocKind::Urgent);
  const auto b = net.add_automaton("b");
  net.add_location(b, "idle");
  net.add_clock("c", 5);
  net.freeze();
  EXPECT_TRUE(test::successors(net, net.initial_state()).empty());
}

TEST(Network, InternalEdgeFiresWhenGuardHolds) {
  Network net;
  const auto a = net.add_automaton("a");
  const auto l0 = net.add_location(a, "l0");
  const auto l1 = net.add_location(a, "l1");
  const auto x = net.add_var("x", 0);
  net.add_edge(a, Edge{.src = l0,
                       .dst = l1,
                       .guard = [x](const StateView& v) {
                         return v.var(x) == 0;
                       },
                       .effect = [x](StateMut& m) { m.set(x, 7); },
                       .label = "go"});
  net.freeze();

  // The internal edge plus a (state-preserving, clockless) tick.
  const auto k = kinds_of(net, net.initial_state());
  EXPECT_EQ(k.internals, 1);
  EXPECT_EQ(k.ticks, 1);
  const auto succ = test::successors(net, net.initial_state());
  const auto it = std::find_if(succ.begin(), succ.end(), [](const auto& t) {
    return t.kind == Transition::Kind::Internal;
  });
  ASSERT_NE(it, succ.end());
  EXPECT_EQ(StateView(net, it->target).var(x), 7);
}

TEST(Network, GuardFalseDisablesEdge) {
  Network net;
  const auto a = net.add_automaton("a");
  const auto l0 = net.add_location(a, "l0");
  const auto l1 = net.add_location(a, "l1");
  net.add_edge(a, Edge{.src = l0,
                       .dst = l1,
                       .guard = [](const StateView&) { return false; },
                       .label = "never"});
  net.add_clock("c", 2);
  net.freeze();
  const auto k = kinds_of(net, net.initial_state());
  EXPECT_EQ(k.internals, 0);
  EXPECT_EQ(k.ticks, 1);
}

TEST(Network, HandshakePairsSenderAndReceiver) {
  Network net;
  const auto ch = net.add_channel("ch", ChanKind::Handshake);
  const auto a = net.add_automaton("a");
  const auto a0 = net.add_location(a, "a0");
  const auto a1 = net.add_location(a, "a1");
  net.add_edge(a, Edge{.src = a0,
                       .dst = a1,
                       .chan = ch,
                       .dir = SyncDir::Send,
                       .label = "snd"});
  const auto b = net.add_automaton("b");
  const auto b0 = net.add_location(b, "b0");
  const auto b1 = net.add_location(b, "b1");
  const auto x = net.add_var("x", 0);
  net.add_edge(b, Edge{.src = b0,
                       .dst = b1,
                       .chan = ch,
                       .dir = SyncDir::Recv,
                       .effect = [x](StateMut& m) { m.set(x, 1); },
                       .label = "rcv"});
  net.freeze();

  const auto succ = test::successors(net, net.initial_state());
  const auto it = std::find_if(succ.begin(), succ.end(), [](const auto& t) {
    return t.kind == Transition::Kind::Sync;
  });
  ASSERT_NE(it, succ.end());
  const StateView v{net, it->target};
  EXPECT_EQ(v.loc(AutomatonId{0}), a1);
  EXPECT_EQ(v.loc(AutomatonId{1}), b1);
  EXPECT_EQ(v.var(x), 1);
}

TEST(Network, HandshakeBlocksWithoutReceiver) {
  Network net;
  const auto ch = net.add_channel("ch", ChanKind::Handshake);
  const auto a = net.add_automaton("a");
  const auto a0 = net.add_location(a, "a0");
  const auto a1 = net.add_location(a, "a1");
  net.add_edge(a, Edge{.src = a0,
                       .dst = a1,
                       .chan = ch,
                       .dir = SyncDir::Send,
                       .label = "snd"});
  net.add_clock("c", 2);
  net.freeze();
  const auto k = kinds_of(net, net.initial_state());
  EXPECT_EQ(k.syncs, 0);
  EXPECT_EQ(k.ticks, 1);
}

TEST(Network, BroadcastReachesAllEnabledReceivers) {
  Network net;
  const auto ch = net.add_channel("ch", ChanKind::Broadcast);
  const auto a = net.add_automaton("a");
  const auto a0 = net.add_location(a, "a0");
  const auto a1 = net.add_location(a, "a1");
  net.add_edge(a, Edge{.src = a0,
                       .dst = a1,
                       .chan = ch,
                       .dir = SyncDir::Send,
                       .label = "snd"});
  const auto x = net.add_var("x", 0);
  for (int i = 0; i < 3; ++i) {
    const auto b = net.add_automaton("b" + std::to_string(i));
    const auto b0 = net.add_location(b, "b0");
    const auto b1 = net.add_location(b, "b1");
    Edge e{.src = b0,
           .dst = b1,
           .chan = ch,
           .dir = SyncDir::Recv,
           .effect = [x](StateMut& m) { m.set(x, m.var(x) + 1); },
           .label = "rcv"};
    if (i == 2) {
      // Receiver 2 is disabled; the broadcast must proceed without it.
      e.guard = [](const StateView&) { return false; };
    }
    net.add_edge(b, std::move(e));
  }
  net.freeze();

  const auto succ = test::successors(net, net.initial_state());
  const auto it = std::find_if(succ.begin(), succ.end(), [](const auto& t) {
    return t.kind == Transition::Kind::Broadcast;
  });
  ASSERT_NE(it, succ.end());
  EXPECT_EQ(it->receivers.size(), 2u);
  EXPECT_EQ(StateView(net, it->target).var(x), 2);
}

TEST(Network, BroadcastFiresWithZeroReceivers) {
  Network net;
  const auto ch = net.add_channel("ch", ChanKind::Broadcast);
  const auto a = net.add_automaton("a");
  const auto a0 = net.add_location(a, "a0");
  const auto a1 = net.add_location(a, "a1");
  net.add_edge(a, Edge{.src = a0,
                       .dst = a1,
                       .chan = ch,
                       .dir = SyncDir::Send,
                       .label = "snd"});
  net.freeze();
  const auto k = kinds_of(net, net.initial_state());
  EXPECT_EQ(k.broadcasts, 1);
}

TEST(Network, CommittedLocationRestrictsInterleaving) {
  Network net;
  // Automaton a sits in a committed location with an outgoing edge;
  // automaton b has an independent internal edge that must be blocked.
  const auto a = net.add_automaton("a");
  const auto ac = net.add_location(a, "committed", LocKind::Committed);
  const auto a1 = net.add_location(a, "done");
  net.add_edge(a, Edge{.src = ac, .dst = a1, .label = "resolve"});
  const auto b = net.add_automaton("b");
  const auto b0 = net.add_location(b, "b0");
  const auto b1 = net.add_location(b, "b1");
  net.add_edge(b, Edge{.src = b0, .dst = b1, .label = "independent"});
  net.add_clock("c", 2);
  net.freeze();

  const auto succ = test::successors(net, net.initial_state());
  ASSERT_EQ(succ.size(), 1u);
  EXPECT_EQ(net.label_of(succ[0].view()), "a.resolve");

  // After resolving, both b's edge and the tick become available.
  const auto k = kinds_of(net, succ[0].target);
  EXPECT_EQ(k.internals, 1);
  EXPECT_EQ(k.ticks, 1);
}

TEST(Network, TargetInvariantBlocksDiscreteTransition) {
  Network net;
  const auto a = net.add_automaton("a");
  const auto c = net.add_clock("c", 10);
  const auto l0 = net.add_location(a, "l0");
  const auto l1 = net.add_location(a, "l1", LocKind::Normal,
                                   [c](const StateView& v) {
                                     return v.clk(c) <= 1;
                                   });
  net.add_edge(a, Edge{.src = l0, .dst = l1, .label = "enter"});
  net.freeze();

  State s = net.initial_state();
  // c == 0: entering l1 is allowed.
  auto k = kinds_of(net, s);
  EXPECT_EQ(k.internals, 1);
  // Advance to c == 2: entering l1 would violate its invariant.
  // Pick the tick (the internal edge is listed first).
  s = test::successors(net, s)[1].target;
  s = *[&]() -> std::optional<State> {
    for (const auto& t : test::successors(net, s)) {
      if (t.kind == Transition::Kind::Tick) return t.target;
    }
    return std::nullopt;
  }();
  k = kinds_of(net, s);
  EXPECT_EQ(k.internals, 0);
}

TEST(Network, EdgePriorityMasksLowerPriority) {
  Network net;
  const auto a = net.add_automaton("a");
  const auto l0 = net.add_location(a, "l0");
  const auto l1 = net.add_location(a, "hi");
  const auto l2 = net.add_location(a, "lo");
  net.add_edge(a, Edge{.src = l0, .dst = l1, .label = "hi", .priority = 1});
  net.add_edge(a, Edge{.src = l0, .dst = l2, .label = "lo", .priority = 0});
  net.freeze();

  // Priorities filter discrete transitions only; the (clockless) tick
  // remains available.
  std::vector<std::string> labels;
  for (const auto& t : test::successors(net, net.initial_state())) {
    labels.push_back(net.label_of(t.view()));
  }
  EXPECT_NE(std::find(labels.begin(), labels.end(), "a.hi"), labels.end());
  EXPECT_EQ(std::find(labels.begin(), labels.end(), "a.lo"), labels.end());
}

TEST(Network, ClockSaturationKeepsStateSpaceFinite) {
  Network net;
  const auto a = net.add_automaton("a");
  net.add_location(a, "idle");
  net.add_clock("c", 4);
  net.freeze();

  State s = net.initial_state();
  for (int i = 0; i < 10; ++i) s = test::successors(net, s)[0].target;
  // Saturated: ticking further returns the identical state.
  const auto succ = test::successors(net, s);
  ASSERT_EQ(succ.size(), 1u);
  EXPECT_EQ(succ[0].target, s);
}

TEST(Network, DescribeMentionsLocationsVarsClocks) {
  Network net;
  const auto a = net.add_automaton("proc");
  net.add_location(a, "start");
  net.add_var("flag", 1);
  net.add_clock("timer", 5);
  net.freeze();
  const auto text = net.describe(net.initial_state());
  EXPECT_NE(text.find("proc@start"), std::string::npos);
  EXPECT_NE(text.find("flag=1"), std::string::npos);
  EXPECT_NE(text.find("timer=0"), std::string::npos);
}

TEST(Network, LabelOfSyncMentionsBothParties) {
  Network net;
  const auto ch = net.add_channel("ch", ChanKind::Handshake);
  const auto a = net.add_automaton("a");
  const auto a0 = net.add_location(a, "a0");
  net.add_edge(a, Edge{.src = a0, .dst = a0, .chan = ch,
                       .dir = SyncDir::Send, .label = "snd"});
  const auto b = net.add_automaton("b");
  const auto b0 = net.add_location(b, "b0");
  net.add_edge(b, Edge{.src = b0, .dst = b0, .chan = ch,
                       .dir = SyncDir::Recv, .label = "rcv"});
  net.freeze();
  const auto succ = test::successors(net, net.initial_state());
  ASSERT_FALSE(succ.empty());
  EXPECT_EQ(net.label_of(succ[0].view()), "a.snd >> b.rcv");
}

// ---- successor order golden digests ----
//
// The explorer's BFS order, parent links, counterexample traces and
// every state/transition count follow from the order in which the
// generator emits successors. These digests pin that order on real
// heartbeat models: a full BFS over each model folds every emitted
// successor (kind, sender, receivers, target slots) into one FNV-1a
// digest, so dropping, adding or reordering an emitted successor
// anywhere in the walk changes it. The digest is computed here, one
// value per step, independent of util/hash.hpp.

struct OrderDigest {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t states = 0;
  std::size_t successors = 0;

  /// One FNV-1a step over the whole value.
  void fold(std::int64_t value) {
    digest ^= static_cast<std::uint64_t>(value);
    digest *= 0x100000001b3ULL;
  }
};

OrderDigest bfs_order_digest(const Network& net, bool reduced) {
  OrderDigest d;
  const auto key = [](std::span<const Slot> slots) {
    return std::string(reinterpret_cast<const char*>(slots.data()),
                       slots.size_bytes());
  };
  std::vector<State> queue{net.initial_state()};
  std::unordered_set<std::string> seen{key(queue[0].slots())};
  SuccessorScratch scratch;
  const auto visit = [&](const SuccessorView& v) {
    ++d.successors;
    d.fold(static_cast<std::int64_t>(v.kind));
    d.fold(v.sender.automaton);
    d.fold(v.sender.edge);
    d.fold(static_cast<std::int64_t>(v.receivers.size()));
    for (const auto& r : v.receivers) {
      d.fold(r.automaton);
      d.fold(r.edge);
    }
    for (const Slot slot : v.target) d.fold(slot);
    if (seen.insert(key(v.target)).second) queue.emplace_back(v.target);
  };
  for (std::size_t next = 0; next < queue.size(); ++next) {
    const State s = queue[next];
    if (reduced) {
      net.for_each_successor_reduced(s, scratch, visit);
    } else {
      net.for_each_successor(s, scratch, visit);
    }
  }
  d.states = queue.size();
  return d;
}

struct Golden {
  std::size_t states;
  std::size_t successors;
  std::uint64_t digest;
};

/// Walks the n=2 model of `flavor` once per generator; both walks must
/// match `want`.
void expect_golden_order(models::Flavor flavor, models::Timing timing,
                         const Golden& want) {
  models::BuildOptions options;
  options.timing = timing;
  options.participants = 2;
  const auto model = models::HeartbeatModel::build(flavor, options);
  for (const bool por : {false, true}) {
    SCOPED_TRACE(por ? "for_each_successor_reduced" : "for_each_successor");
    const OrderDigest got = bfs_order_digest(model.net(), por);
    EXPECT_EQ(got.states, want.states);
    EXPECT_EQ(got.successors, want.successors);
    EXPECT_EQ(got.digest, want.digest);
  }
}

// Small timing bounds (the joining flavors' n=2 spaces are 10-20x the
// static one's). Each walk is exhaustive, so it reads every row of the
// edge index that the model can reach. The ample filter finds no sound
// subset in these models at n=2, so both generators emit the same
// sequence and share one golden value.
TEST(SuccessorOrder, StaticWalkMatchesGoldenDigest) {
  expect_golden_order(models::Flavor::Static, {1, 2},
                      {33'611, 90'785, 0x546de54fa68a0b36ULL});
}

TEST(SuccessorOrder, DynamicWalkMatchesGoldenDigest) {
  expect_golden_order(models::Flavor::Dynamic, {1, 1},
                      {675'076, 2'251'117, 0xe02758d9712532ddULL});
}

TEST(SuccessorOrder, ExpandingWalkMatchesGoldenDigest) {
  expect_golden_order(models::Flavor::Expanding, {1, 1},
                      {350'141, 1'215'957, 0x3ce58868977dea9eULL});
}

}  // namespace
}  // namespace ahb::ta
