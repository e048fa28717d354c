#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "mc/explorer.hpp"
#include "models/heartbeat_model.hpp"
#include "ta/network.hpp"

namespace ahb::mc {
namespace {

using ta::ChanKind;
using ta::Edge;
using ta::LocKind;
using ta::StateMut;
using ta::StateView;
using ta::SyncDir;

/// Counter automaton: x counts 0..9 via internal steps.
ta::Network counter_net() {
  ta::Network net;
  const auto a = net.add_automaton("counter");
  const auto l = net.add_location(a, "run");
  const auto x = net.add_var("x", 0);
  net.add_edge(a, Edge{.src = l,
                       .dst = l,
                       .guard = [x](const StateView& v) {
                         return v.var(x) < 9;
                       },
                       .effect = [x](StateMut& m) { m.set(x, m.var(x) + 1); },
                       .label = "inc"});
  net.freeze();
  return net;
}

TEST(Explorer, ReachFindsTarget) {
  const auto net = counter_net();
  Explorer ex{net};
  const auto r = ex.reach([](const StateView& v) {
    return v.var(ta::VarId{0}) == 5;
  });
  EXPECT_TRUE(r.found);
  // Shortest path: initial + 5 increments.
  EXPECT_EQ(r.trace.size(), 6u);
  EXPECT_EQ(r.trace.back().state[1], 5);  // slot 1 = the variable
  EXPECT_EQ(r.trace[1].action, "counter.inc");
}

TEST(Explorer, ReachUnreachableIsCompleteNegative) {
  const auto net = counter_net();
  Explorer ex{net};
  const auto r = ex.reach([](const StateView& v) {
    return v.var(ta::VarId{0}) == 42;
  });
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.stats.states, 10u);  // x in 0..9
}

TEST(Explorer, TargetInInitialState) {
  const auto net = counter_net();
  Explorer ex{net};
  const auto r = ex.reach([](const StateView&) { return true; });
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.trace.size(), 1u);
  EXPECT_TRUE(r.trace[0].action.empty());
  // The initial state answers the query exactly; nothing was truncated.
  EXPECT_TRUE(r.complete);
}

TEST(Explorer, MaxStatesLimitMakesSearchIncomplete) {
  const auto net = counter_net();
  Explorer ex{net};
  SearchLimits limits;
  limits.max_states = 3;
  const auto r = ex.reach(
      [](const StateView& v) { return v.var(ta::VarId{0}) == 42; }, limits);
  EXPECT_FALSE(r.found);
  EXPECT_FALSE(r.complete);
  // The cap is checked before interning: the store never overshoots.
  EXPECT_LE(r.stats.states, 3u);
}

TEST(Explorer, MaxStatesNeverExceededInParallelRuns) {
  const auto net = counter_net();
  Explorer ex{net};
  for (unsigned threads : {2u, 4u}) {
    SearchLimits limits;
    limits.max_states = 4;
    limits.threads = threads;
    const auto r = ex.reach(
        [](const StateView& v) { return v.var(ta::VarId{0}) == 42; }, limits);
    EXPECT_FALSE(r.found);
    EXPECT_FALSE(r.complete);
    EXPECT_LE(r.stats.states, 4u) << "threads=" << threads;
  }
}

TEST(Explorer, ParallelReachMatchesSequential) {
  const auto net = counter_net();
  Explorer ex{net};
  const auto target = [](const StateView& v) {
    return v.var(ta::VarId{0}) == 7;
  };
  SearchLimits seq;
  seq.threads = 1;
  const auto r1 = ex.reach(target, seq);
  for (unsigned threads : {2u, 8u}) {
    SearchLimits limits;
    limits.threads = threads;
    const auto rn = ex.reach(target, limits);
    EXPECT_EQ(rn.found, r1.found) << "threads=" << threads;
    EXPECT_EQ(rn.trace.size(), r1.trace.size()) << "threads=" << threads;
    EXPECT_EQ(rn.stats.depth, r1.stats.depth) << "threads=" << threads;
  }
}

TEST(Explorer, DepthLimitStopsBfs) {
  const auto net = counter_net();
  Explorer ex{net};
  SearchLimits limits;
  limits.max_depth = 2;
  const auto r = ex.reach(
      [](const StateView& v) { return v.var(ta::VarId{0}) == 9; }, limits);
  EXPECT_FALSE(r.found);
  EXPECT_FALSE(r.complete);
  EXPECT_LE(r.stats.depth, 2u);
}

TEST(Explorer, FindDeadlockOnDeadEnd) {
  ta::Network net;
  const auto a = net.add_automaton("a");
  const auto c = net.add_clock("c", 5);
  // Invariant caps time at 2 and there is no outgoing edge: timelock.
  net.add_location(a, "trap", LocKind::Normal,
                   [c](const StateView& v) { return v.clk(c) <= 2; });
  net.freeze();
  Explorer ex{net};
  const auto r = ex.find_deadlock();
  EXPECT_TRUE(r.found);
  // Deadlock state: c == 2 (tick to 3 forbidden, no edges).
  EXPECT_EQ(r.trace.back().state[1], 2);
}

TEST(Explorer, NoDeadlockInIdleSystem) {
  ta::Network net;
  const auto a = net.add_automaton("a");
  net.add_location(a, "idle");
  net.add_clock("c", 3);
  net.freeze();
  Explorer ex{net};
  const auto r = ex.find_deadlock();
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.complete);
}

TEST(Explorer, CheckInvariantHolds) {
  const auto net = counter_net();
  Explorer ex{net};
  const auto r = ex.check_invariant([](const StateView& v) {
    return v.var(ta::VarId{0}) <= 9;
  });
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.complete);
}

TEST(Explorer, CheckInvariantViolatedGivesShortestTrace) {
  const auto net = counter_net();
  Explorer ex{net};
  const auto r = ex.check_invariant([](const StateView& v) {
    return v.var(ta::VarId{0}) < 3;
  });
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.trace.size(), 4u);  // init, 1, 2, 3
}

TEST(Explorer, ExploreAllCountsWholeSpace) {
  const auto net = counter_net();
  Explorer ex{net};
  const auto stats = ex.explore_all();
  EXPECT_EQ(stats.states, 10u);
  EXPECT_GT(stats.transitions, 0u);
}

TEST(Explorer, TraceActionsAreConsistent) {
  // Two parallel automata: the trace must interleave labelled actions
  // that actually connect consecutive states.
  ta::Network net;
  const auto ch = net.add_channel("go", ChanKind::Handshake);
  const auto a = net.add_automaton("a");
  const auto a0 = net.add_location(a, "a0");
  const auto a1 = net.add_location(a, "a1");
  net.add_edge(a, Edge{.src = a0, .dst = a1, .chan = ch,
                       .dir = SyncDir::Send, .label = "snd"});
  const auto b = net.add_automaton("b");
  const auto b0 = net.add_location(b, "b0");
  const auto b1 = net.add_location(b, "b1");
  net.add_edge(b, Edge{.src = b0, .dst = b1, .chan = ch,
                       .dir = SyncDir::Recv, .label = "rcv"});
  net.freeze();
  Explorer ex{net};
  const auto r = ex.reach([&](const StateView& v) {
    return v.loc(ta::AutomatonId{0}) == a1 && v.loc(ta::AutomatonId{1}) == b1;
  });
  ASSERT_TRUE(r.found);
  ASSERT_EQ(r.trace.size(), 2u);
  EXPECT_EQ(r.trace[1].action, "a.snd >> b.rcv");
}

// --- Multi-target reach: one BFS, each result as if searched alone ---

/// Result k of a multi-target search must equal the single-target search
/// for targets[k]: verdict, completeness, every statistic but `elapsed`,
/// and the trace. Parallel parent links are first-inserter-wins, so with
/// threads > 1 the path through the BFS layers may differ between any
/// two runs; there only its length is compared.
void expect_same_result(const SearchResult& multi, const SearchResult& single,
                        unsigned threads) {
  EXPECT_EQ(multi.found, single.found);
  EXPECT_EQ(multi.complete, single.complete);
  EXPECT_EQ(multi.stats.states, single.stats.states);
  EXPECT_EQ(multi.stats.transitions, single.stats.transitions);
  EXPECT_EQ(multi.stats.depth, single.stats.depth);
  EXPECT_EQ(multi.stats.fused, single.stats.fused);
  EXPECT_EQ(multi.stats.store_bytes, single.stats.store_bytes);
  ASSERT_EQ(multi.trace.size(), single.trace.size());
  if (threads != 1) return;
  for (std::size_t i = 0; i < multi.trace.size(); ++i) {
    EXPECT_EQ(multi.trace[i].action, single.trace[i].action) << "step " << i;
    EXPECT_TRUE(std::ranges::equal(multi.trace[i].state.slots(),
                                   single.trace[i].state.slots()))
        << "step " << i;
  }
}

void expect_multi_matches_singles(Explorer& explorer,
                                  std::span<const Pred> targets,
                                  const SearchLimits& limits) {
  const auto multi = explorer.reach(targets, limits);
  ASSERT_EQ(multi.size(), targets.size());
  for (std::size_t k = 0; k < targets.size(); ++k) {
    SCOPED_TRACE("target " + std::to_string(k));
    expect_same_result(multi[k], explorer.reach(targets[k], limits),
                       limits.threads);
  }
}

struct ModelPoint {
  models::Flavor flavor;
  int tmin;
  int tmax;
};

TEST(MultiTarget, R2AndR3MatchSeparateSearches) {
  // At tmin = tmax both requirements are violated at different depths:
  // R2 settles first and the search goes on for R3. Static tmin 2 tmax 3
  // satisfies both, so the two results close together, complete. The
  // dynamic points add join and leave channels.
  const std::vector<ModelPoint> points{{models::Flavor::Static, 3, 3},
                                       {models::Flavor::Static, 2, 3},
                                       {models::Flavor::Dynamic, 2, 2},
                                       {models::Flavor::Dynamic, 3, 3}};
  enum class Mode { kPlain, kSymmetryPor, kCollapse };
  for (const ModelPoint& point : points) {
    models::BuildOptions options;
    options.timing = {point.tmin, point.tmax};
    options.participants = 2;
    const auto model = models::HeartbeatModel::build(point.flavor, options);
    Explorer ex{model.net()};
    const std::array<Pred, 2> targets{model.r2_violation_any(),
                                      model.r3_violation()};
    for (const Mode mode : {Mode::kPlain, Mode::kSymmetryPor, Mode::kCollapse}) {
      for (const unsigned threads : {1u, 2u, 8u}) {
        SearchLimits limits;
        limits.threads = threads;
        if (mode == Mode::kSymmetryPor) {
          limits.symmetry = ta::Symmetry::Participants;
          limits.por = true;
        } else if (mode == Mode::kCollapse) {
          limits.compression = ta::Compression::Collapse;
        }
        SCOPED_TRACE(std::string{models::to_string(point.flavor)} + " tmin " +
                     std::to_string(point.tmin) + " tmax " +
                     std::to_string(point.tmax) + " mode " +
                     std::to_string(static_cast<int>(mode)) + " threads " +
                     std::to_string(threads));
        expect_multi_matches_singles(ex, targets, limits);
      }
    }
  }
}

TEST(MultiTarget, TargetInInitialStateSettlesAtOnce) {
  const auto net = counter_net();
  Explorer ex{net};
  const std::array<Pred, 2> targets{
      [](const StateView&) { return true; },
      [](const StateView& v) { return v.var(ta::VarId{0}) == 5; }};
  for (const unsigned threads : {1u, 2u}) {
    SearchLimits limits;
    limits.threads = threads;
    SCOPED_TRACE("threads " + std::to_string(threads));
    const auto results = ex.reach(targets, limits);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].found);
    EXPECT_TRUE(results[0].complete);
    EXPECT_EQ(results[0].trace.size(), 1u);
    EXPECT_EQ(results[0].stats.states, 1u);
    // The other target's search went on past the initial state.
    EXPECT_TRUE(results[1].found);
    EXPECT_EQ(results[1].trace.size(), 6u);
    expect_multi_matches_singles(ex, targets, limits);
  }
}

TEST(MultiTarget, DuplicatedTargetGetsTheSameResultTwice) {
  const auto net = counter_net();
  Explorer ex{net};
  const Pred seven = [](const StateView& v) {
    return v.var(ta::VarId{0}) == 7;
  };
  const std::array<Pred, 3> targets{seven, seven, [](const StateView& v) {
                                      return v.var(ta::VarId{0}) == 42;
                                    }};
  for (const unsigned threads : {1u, 2u}) {
    SearchLimits limits;
    limits.threads = threads;
    SCOPED_TRACE("threads " + std::to_string(threads));
    expect_multi_matches_singles(ex, targets, limits);
  }
}

TEST(MultiTarget, EmptyTargetListRunsNoSearch) {
  const auto net = counter_net();
  Explorer ex{net};
  EXPECT_TRUE(ex.reach(std::span<const Pred>{}).empty());
}

/// `a` passes through a committed location on its way to done_a = 1;
/// `b` ticks a counter 0..3. Under POR the committed state is transient
/// (expanded through, never interned).
ta::Network committed_net() {
  ta::Network net;
  const auto a = net.add_automaton("a");
  const auto b = net.add_automaton("b");
  const auto done_a = net.add_var("done_a", 0, 0, 1, a);
  const auto count = net.add_var("count", 0, 0, 3, b);
  const int a0 = net.add_location(a, "A0");
  const int ac = net.add_location(a, "AC", LocKind::Committed);
  const int a1 = net.add_location(a, "A1");
  const int b0 = net.add_location(b, "B0");
  net.add_edge(a, Edge{.src = a0, .dst = ac, .label = "go"});
  net.add_edge(a, Edge{.src = ac,
                       .dst = a1,
                       .effect = [done_a](StateMut& m) { m.set(done_a, 1); },
                       .label = "done",
                       .invisible = true});
  net.add_edge(b, Edge{.src = b0,
                       .dst = b0,
                       .guard = [count](const StateView& v) {
                         return v.var(count) < 3;
                       },
                       .effect = [count](StateMut& m) {
                         m.set(count, m.var(count) + 1);
                       },
                       .label = "tick"});
  net.freeze();
  return net;
}

TEST(MultiTarget, HitOnTransientStateMatchesSeparateSearch) {
  const auto net = committed_net();
  Explorer ex{net};
  const auto a = ta::AutomatonId{0};
  const int ac = 1;  // a's committed location AC
  const std::array<Pred, 3> targets{
      // Only ever true in the committed (transient) location.
      [a, ac](const StateView& v) { return v.loc(a) == ac; },
      [](const StateView& v) {
        return v.var(ta::VarId{0}) == 1 && v.var(ta::VarId{1}) == 3;
      },
      [](const StateView& v) { return v.var(ta::VarId{1}) == 4; }};
  for (const unsigned threads : {1u, 2u, 8u}) {
    SearchLimits limits;
    limits.threads = threads;
    limits.por = true;
    SCOPED_TRACE("threads " + std::to_string(threads));
    const auto transient = ex.reach(targets[0], limits);
    ASSERT_TRUE(transient.found);
    EXPECT_TRUE(net.committed_location_active(transient.trace.back().state));
    EXPECT_GT(ex.explore_all(limits).fused, 0u);
    expect_multi_matches_singles(ex, targets, limits);
  }
}

TEST(MultiTarget, TruncationLeavesUnsettledTargetsIncomplete) {
  // The counter is a chain, one state per layer, so even a parallel
  // search trips max_states at the same point in every run.
  const auto net = counter_net();
  Explorer ex{net};
  const std::array<Pred, 2> targets{
      [](const StateView& v) { return v.var(ta::VarId{0}) == 2; },
      [](const StateView& v) { return v.var(ta::VarId{0}) == 8; }};
  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SearchLimits by_depth;
    by_depth.threads = threads;
    by_depth.max_depth = 4;
    SearchLimits by_states;
    by_states.threads = threads;
    by_states.max_states = 5;
    for (const SearchLimits& limits : {by_depth, by_states}) {
        const auto results = ex.reach(targets, limits);
      EXPECT_TRUE(results[0].found);
      EXPECT_FALSE(results[1].found);
      EXPECT_FALSE(results[1].complete);
      expect_multi_matches_singles(ex, targets, limits);
    }
  }
}

}  // namespace
}  // namespace ahb::mc
