// Deeper semantic tests of the timed-automata engine: effect visibility
// and ordering, committed-sync interaction, broadcast alternatives, and
// layout/introspection behaviour.
#include <gtest/gtest.h>

#include <algorithm>

#include "ta/network.hpp"
#include "successors.hpp"

namespace ahb::ta {
namespace {

TEST(Semantics, ReceiversSeeSenderEffects) {
  // UPPAAL semantics: the sender's update runs before the receivers',
  // and receivers observe it.
  Network net;
  const auto ch = net.add_channel("ch", ChanKind::Broadcast);
  const auto x = net.add_var("x", 0);
  const auto y = net.add_var("y", 0);

  const auto a = net.add_automaton("sender");
  const auto a0 = net.add_location(a, "l");
  net.add_edge(a, Edge{.src = a0,
                       .dst = a0,
                       .chan = ch,
                       .dir = SyncDir::Send,
                       .effect = [x](StateMut& m) { m.set(x, 41); },
                       .label = "snd"});
  const auto b = net.add_automaton("receiver");
  const auto b0 = net.add_location(b, "l");
  net.add_edge(b, Edge{.src = b0,
                       .dst = b0,
                       .chan = ch,
                       .dir = SyncDir::Recv,
                       .effect =
                           [x, y](StateMut& m) { m.set(y, m.var(x) + 1); },
                       .label = "rcv"});
  net.freeze();

  for (const auto& t : test::successors(net, net.initial_state())) {
    if (t.kind != Transition::Kind::Broadcast) continue;
    const StateView v{net, t.target};
    EXPECT_EQ(v.var(x), 41);
    EXPECT_EQ(v.var(y), 42);
    return;
  }
  FAIL() << "broadcast not generated";
}

TEST(Semantics, ReceiverEffectsRunInAutomatonOrder) {
  Network net;
  const auto ch = net.add_channel("ch", ChanKind::Broadcast);
  const auto trace = net.add_var("trace", 0);

  const auto sender = net.add_automaton("s");
  const auto s0 = net.add_location(sender, "l");
  net.add_edge(sender, Edge{.src = s0,
                            .dst = s0,
                            .chan = ch,
                            .dir = SyncDir::Send,
                            .label = "snd"});
  // Two receivers appending their digit: final value must be 12 (first
  // automaton added runs first).
  for (int digit = 1; digit <= 2; ++digit) {
    const auto r = net.add_automaton("r" + std::to_string(digit));
    const auto r0 = net.add_location(r, "l");
    net.add_edge(r, Edge{.src = r0,
                         .dst = r0,
                         .chan = ch,
                         .dir = SyncDir::Recv,
                         .effect =
                             [trace, digit](StateMut& m) {
                               m.set(trace, m.var(trace) * 10 + digit);
                             },
                         .label = "rcv"});
  }
  net.freeze();

  for (const auto& t : test::successors(net, net.initial_state())) {
    if (t.kind != Transition::Kind::Broadcast) continue;
    EXPECT_EQ(StateView(net, t.target).var(trace), 12);
    return;
  }
  FAIL() << "broadcast not generated";
}

TEST(Semantics, CommittedBlocksUnrelatedSyncs) {
  Network net;
  const auto ch = net.add_channel("ch", ChanKind::Handshake);
  // a is committed with only an internal resolution edge.
  const auto a = net.add_automaton("a");
  const auto ac = net.add_location(a, "c", LocKind::Committed);
  const auto a1 = net.add_location(a, "done");
  net.add_edge(a, Edge{.src = ac, .dst = a1, .label = "resolve"});
  // b and c could handshake, but neither is committed.
  const auto b = net.add_automaton("b");
  const auto b0 = net.add_location(b, "l");
  net.add_edge(b, Edge{.src = b0, .dst = b0, .chan = ch,
                       .dir = SyncDir::Send, .label = "snd"});
  const auto c = net.add_automaton("c");
  const auto c0 = net.add_location(c, "l");
  net.add_edge(c, Edge{.src = c0, .dst = c0, .chan = ch,
                       .dir = SyncDir::Recv, .label = "rcv"});
  net.freeze();

  const auto succ = test::successors(net, net.initial_state());
  ASSERT_EQ(succ.size(), 1u);
  EXPECT_EQ(net.label_of(succ[0].view()), "a.resolve");
}

TEST(Semantics, CommittedParticipantEnablesSync) {
  // A sync is allowed while committed automata exist iff one of its
  // edges leaves a committed location.
  Network net;
  const auto ch = net.add_channel("ch", ChanKind::Handshake);
  const auto a = net.add_automaton("a");
  const auto ac = net.add_location(a, "c", LocKind::Committed);
  const auto a1 = net.add_location(a, "done");
  net.add_edge(a, Edge{.src = ac, .dst = a1, .chan = ch,
                       .dir = SyncDir::Send, .label = "snd"});
  const auto b = net.add_automaton("b");
  const auto b0 = net.add_location(b, "l");
  net.add_edge(b, Edge{.src = b0, .dst = b0, .chan = ch,
                       .dir = SyncDir::Recv, .label = "rcv"});
  net.freeze();

  const auto succ = test::successors(net, net.initial_state());
  ASSERT_EQ(succ.size(), 1u);
  EXPECT_EQ(succ[0].kind, Transition::Kind::Sync);
}

TEST(Semantics, BroadcastAlternativesBranchPerReceiverEdge) {
  // A receiver with two enabled receive edges contributes two broadcast
  // alternatives.
  Network net;
  const auto ch = net.add_channel("ch", ChanKind::Broadcast);
  const auto a = net.add_automaton("a");
  const auto a0 = net.add_location(a, "l");
  net.add_edge(a, Edge{.src = a0, .dst = a0, .chan = ch,
                       .dir = SyncDir::Send, .label = "snd"});
  const auto b = net.add_automaton("b");
  const auto b0 = net.add_location(b, "l0");
  const auto b1 = net.add_location(b, "l1");
  const auto b2 = net.add_location(b, "l2");
  net.add_edge(b, Edge{.src = b0, .dst = b1, .chan = ch,
                       .dir = SyncDir::Recv, .label = "to1"});
  net.add_edge(b, Edge{.src = b0, .dst = b2, .chan = ch,
                       .dir = SyncDir::Recv, .label = "to2"});
  net.freeze();

  int broadcasts = 0;
  std::vector<Slot> b_locations;
  for (const auto& t : test::successors(net, net.initial_state())) {
    if (t.kind != Transition::Kind::Broadcast) continue;
    ++broadcasts;
    b_locations.push_back(StateView(net, t.target).loc(AutomatonId{1}));
  }
  EXPECT_EQ(broadcasts, 2);
  std::sort(b_locations.begin(), b_locations.end());
  EXPECT_EQ(b_locations, (std::vector<Slot>{static_cast<Slot>(b1),
                                            static_cast<Slot>(b2)}));
}

TEST(Semantics, SenderGuardBlocksWholeBroadcast) {
  Network net;
  const auto ch = net.add_channel("ch", ChanKind::Broadcast);
  const auto a = net.add_automaton("a");
  const auto a0 = net.add_location(a, "l");
  net.add_edge(a, Edge{.src = a0,
                       .dst = a0,
                       .chan = ch,
                       .dir = SyncDir::Send,
                       .guard = [](const StateView&) { return false; },
                       .label = "snd"});
  const auto b = net.add_automaton("b");
  const auto b0 = net.add_location(b, "l");
  net.add_edge(b, Edge{.src = b0, .dst = b0, .chan = ch,
                       .dir = SyncDir::Recv, .label = "rcv"});
  net.freeze();

  for (const auto& t : test::successors(net, net.initial_state())) {
    EXPECT_NE(t.kind, Transition::Kind::Broadcast);
  }
}

TEST(Semantics, InvariantOnOtherAutomatonVariableIsRespected) {
  // Invariants may read shared variables: shrinking the bound via a
  // discrete transition must immediately constrain time.
  Network net;
  const auto limit = net.add_var("limit", 5);
  const auto c = net.add_clock("c", 10);
  const auto a = net.add_automaton("holder");
  net.add_location(a, "l", LocKind::Normal,
                   [limit, c](const StateView& v) {
                     return v.clk(c) <= v.var(limit);
                   });
  const auto b = net.add_automaton("shrinker");
  const auto b0 = net.add_location(b, "l0");
  const auto b1 = net.add_location(b, "l1");
  net.add_edge(b, Edge{.src = b0,
                       .dst = b1,
                       .guard = [c](const StateView& v) {
                         return v.clk(c) == 3;
                       },
                       .effect = [limit](StateMut& m) { m.set(limit, 3); },
                       .label = "shrink"});
  net.freeze();

  // Tick to c == 3, shrink the limit, then no tick may follow.
  State s = net.initial_state();
  for (int i = 0; i < 3; ++i) {
    const auto succ = test::successors(net, s);
    const auto tick = std::find_if(succ.begin(), succ.end(), [](const auto& t) {
      return t.kind == Transition::Kind::Tick;
    });
    ASSERT_NE(tick, succ.end());
    s = tick->target;
  }
  const auto succ = test::successors(net, s);
  const auto shrink =
      std::find_if(succ.begin(), succ.end(), [&](const auto& t) {
        return t.kind == Transition::Kind::Internal;
      });
  ASSERT_NE(shrink, succ.end());
  const State after = shrink->target;
  EXPECT_FALSE(net.tick_enabled(after));
}

TEST(Semantics, MultipleClocksTickTogether) {
  Network net;
  const auto a = net.add_automaton("a");
  net.add_location(a, "l");
  const auto c1 = net.add_clock("c1", 10);
  const auto c2 = net.add_clock("c2", 3);
  net.freeze();

  State s = net.initial_state();
  for (int i = 0; i < 6; ++i) s = test::successors(net, s)[0].target;
  const StateView v{net, s};
  EXPECT_EQ(v.clk(c1), 6);
  EXPECT_EQ(v.clk(c2), 3);  // saturated at its own cap
}

}  // namespace
}  // namespace ahb::ta
