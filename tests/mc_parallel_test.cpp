// Determinism of the parallel layer-synchronous BFS explorer.
//
// The contract (DESIGN.md "Parallel exploration"):
//  - verdicts, BFS depths and counterexample lengths are identical for
//    every thread count, including the sequential path (threads=1);
//  - runs that *complete* (no target hit, no limit) visit exactly the
//    same state set regardless of the thread count, so states and
//    transitions counts match bit-for-bit;
//  - runs that *find* a target stop within the final layer. Parallel
//    runs always finish that layer, so any two thread counts > 1 agree
//    with each other on the counts; the sequential run may stop mid-layer
//    with fewer states, which is why only verdict/depth/length equality
//    is asserted against it.
//
// The sweep mirrors Table 1 of the source analysis: the binary and
// static protocols at tmax = 10, tmin in {1, 4, 5, 9, 10}.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "models/heartbeat_model.hpp"

namespace ahb::models {
namespace {

class ParallelTable1Sweep
    : public ::testing::TestWithParam<std::tuple<Flavor, int>> {};

TEST_P(ParallelTable1Sweep, VerdictsAndCountsAgreeAcrossThreadCounts) {
  const auto [flavor, tmin] = GetParam();
  BuildOptions options;
  options.timing = Timing{tmin, 10};
  options.participants = 1;

  const std::vector<unsigned> thread_counts{1, 2, 8};
  std::vector<Verdicts> runs;
  for (unsigned threads : thread_counts) {
    mc::SearchLimits limits;
    limits.threads = threads;
    runs.push_back(verify_requirements(flavor, options, limits));
  }

  const auto check = [&](auto verdict_of, auto stats_of, const char* name) {
    const Verdicts& seq = runs.front();
    for (std::size_t i = 1; i < runs.size(); ++i) {
      SCOPED_TRACE(std::string{name} + " threads=" +
                   std::to_string(thread_counts[i]));
      EXPECT_EQ(verdict_of(runs[i]), verdict_of(seq));
      EXPECT_EQ(stats_of(runs[i]).depth, stats_of(seq).depth);
      if (verdict_of(seq)) {
        // Requirement holds: the search was exhaustive, so every thread
        // count visits exactly the same state space.
        EXPECT_EQ(stats_of(runs[i]).states, stats_of(seq).states);
        EXPECT_EQ(stats_of(runs[i]).transitions, stats_of(seq).transitions);
      } else if (i >= 2) {
        // Counterexample found: parallel runs finish the final layer, so
        // they agree with each other (compare against the first parallel
        // run, runs[1]).
        EXPECT_EQ(stats_of(runs[i]).states, stats_of(runs[1]).states);
        EXPECT_EQ(stats_of(runs[i]).transitions,
                  stats_of(runs[1]).transitions);
      }
    }
  };
  check([](const Verdicts& v) { return v.r1; },
        [](const Verdicts& v) { return v.r1_stats; }, "R1");
  check([](const Verdicts& v) { return v.r2; },
        [](const Verdicts& v) { return v.r2_stats; }, "R2");
  check([](const Verdicts& v) { return v.r3; },
        [](const Verdicts& v) { return v.r3_stats; }, "R3");
}

INSTANTIATE_TEST_SUITE_P(
    Table1, ParallelTable1Sweep,
    ::testing::Combine(::testing::Values(Flavor::Binary, Flavor::Static),
                       ::testing::Values(1, 4, 5, 9, 10)),
    [](const auto& info) {
      std::string name = std::string(to_string(std::get<0>(info.param))) + "_tmin" +
                         std::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ParallelCounterexamples, ShortestTraceLengthIsThreadCountInvariant) {
  // Binary protocol at tmin=1, tmax=10: R1 is violated (2*tmin <= tmax),
  // so the watchdog's Error location is reachable. BFS guarantees the
  // trace is shortest; the parallel explorer must reproduce its length
  // (parent links always point one layer back, and the first layer
  // containing any violation is schedule-independent).
  BuildOptions options;
  options.timing = Timing{1, 10};
  options.participants = 1;
  options.r1_monitor = true;
  const auto model = HeartbeatModel::build(Flavor::Binary, options);
  mc::Explorer ex{model.net()};

  mc::SearchLimits seq;
  seq.threads = 1;
  const auto base = ex.reach(model.r1_violation(), seq);
  ASSERT_TRUE(base.found);

  // Pinned sequential counterexample: the action labels and the states
  // interned before the stop. Any change to the sequential loop's
  // intern/stop order or to trace reconstruction moves these.
  const std::vector<std::string> expected_labels{
      "",
      "tick", "tick", "tick", "tick", "tick",
      "tick", "tick", "tick", "tick", "tick",
      "p0.timeout",
      "p0.send_beat >> ch1.accept_beat",
      "ch1.lose_beat",
      "tick", "tick", "tick", "tick", "tick",
      "tick", "tick", "tick", "tick", "tick",
      "p0.timeout",
      "p0.send_beat >> ch1.accept_beat",
      "tick",
      "mon1.error_r1"};
  std::vector<std::string> labels;
  for (const auto& step : base.trace) labels.push_back(step.action);
  EXPECT_EQ(labels, expected_labels);
  EXPECT_EQ(base.stats.states, 430u);

  for (unsigned threads : {2u, 8u}) {
    mc::SearchLimits limits;
    limits.threads = threads;
    const auto r = ex.reach(model.r1_violation(), limits);
    ASSERT_TRUE(r.found) << "threads=" << threads;
    EXPECT_EQ(r.trace.size(), base.trace.size()) << "threads=" << threads;
    EXPECT_EQ(r.stats.depth, base.stats.depth) << "threads=" << threads;
    // Every step of the replayed trace must carry a real action label:
    // replay_trace labels a stored step that no successor reaches
    // "<unreplayed>", and an empty label would mean the lookup silently
    // failed.
    for (std::size_t i = 1; i < r.trace.size(); ++i) {
      EXPECT_FALSE(r.trace[i].action.empty())
          << "threads=" << threads << " step=" << i;
      EXPECT_NE(r.trace[i].action, "<unreplayed>")
          << "threads=" << threads << " step=" << i;
    }
  }
}

TEST(ParallelCounterexamples, R2TraceLengthIsThreadCountInvariant) {
  // Static protocol at tmin=10, tmax=10: R2 is violated (tmin == tmax).
  BuildOptions options;
  options.timing = Timing{10, 10};
  options.participants = 1;
  const auto model = HeartbeatModel::build(Flavor::Static, options);
  mc::Explorer ex{model.net()};

  mc::SearchLimits seq;
  seq.threads = 1;
  const auto base = ex.reach(model.r2_violation_any(), seq);
  ASSERT_TRUE(base.found);

  for (unsigned threads : {2u, 8u}) {
    mc::SearchLimits limits;
    limits.threads = threads;
    const auto r = ex.reach(model.r2_violation_any(), limits);
    ASSERT_TRUE(r.found) << "threads=" << threads;
    EXPECT_EQ(r.trace.size(), base.trace.size()) << "threads=" << threads;
  }
}

TEST(ParallelCounterexamples, ParallelDeadlockSearchAgrees) {
  // Deadlock freedom of the binary protocol: the stop predicate itself
  // generates successors (has_successor), exercising the reentrant
  // stop-scratch path of every worker.
  BuildOptions options;
  options.timing = Timing{4, 10};
  options.participants = 1;
  const auto model = HeartbeatModel::build(Flavor::Binary, options);
  mc::Explorer ex{model.net()};

  mc::SearchLimits seq;
  seq.threads = 1;
  const auto base = ex.find_deadlock(seq);

  for (unsigned threads : {2u, 8u}) {
    mc::SearchLimits limits;
    limits.threads = threads;
    const auto r = ex.find_deadlock(limits);
    EXPECT_EQ(r.found, base.found) << "threads=" << threads;
    EXPECT_EQ(r.complete, base.complete) << "threads=" << threads;
    if (!base.found) {
      EXPECT_EQ(r.stats.states, base.stats.states) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace ahb::models
