// Compression invariance and concurrency tests (the acceptance bar of
// the compressed-store work): every verification result — verdicts,
// state counts, transition counts, depths, counterexample traces — must
// be identical across {none, collapse} x {1, 8} threads, and the
// collapse-mode ConcurrentStateStore must stay exact under concurrent
// intern storms (this binary carries the "compression" ctest label the
// sanitizer presets run).
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "mc/concurrent_store.hpp"
#include "mc/explorer.hpp"
#include "models/heartbeat_model.hpp"
#include "util/rng.hpp"
#include "successors.hpp"

namespace ahb {
namespace {

using models::BuildOptions;
using models::Flavor;
using models::HeartbeatModel;

constexpr ta::Compression kModes[] = {ta::Compression::None,
                                      ta::Compression::Collapse};

TEST(CompressionDeterminism, VerdictsAndCountsMatchAcrossModesAndThreads) {
  // Table-1 points for the fast flavors. Verdicts must agree everywhere.
  // State counts and depths are compared against an uncompressed
  // baseline *per thread count*: when a requirement fails, the
  // sequential search stops at the first hit mid-level while the
  // parallel search finishes the BFS level (that is what makes its
  // shortest counterexample deterministic), so the two legitimately
  // intern slightly different totals — a pre-existing explorer property,
  // orthogonal to compression. Within a thread count, none and collapse
  // must be indistinguishable.
  const std::pair<int, int> points[] = {
      {1, 10}, {4, 10}, {5, 10}, {9, 10}, {10, 10}};
  const Flavor flavors[] = {Flavor::Binary, Flavor::RevisedBinary,
                            Flavor::TwoPhase, Flavor::Static};
  for (const auto flavor : flavors) {
    for (const auto& [tmin, tmax] : points) {
      SCOPED_TRACE(testing::Message() << models::to_string(flavor)
                                      << " tmin=" << tmin);
      BuildOptions options;
      options.timing = {tmin, tmax};
      std::optional<models::Verdicts> sequential;
      for (const unsigned threads : {1u, 8u}) {
        mc::SearchLimits base_limits;
        base_limits.threads = threads;
        const auto base =
            models::verify_requirements(flavor, options, base_limits);
        if (!sequential.has_value()) {
          sequential = base;
        } else {
          // Verdicts (unlike early-exit counts) are thread-invariant.
          EXPECT_EQ(base.r1, sequential->r1);
          EXPECT_EQ(base.r2, sequential->r2);
          EXPECT_EQ(base.r3, sequential->r3);
        }
        for (const auto mode : kModes) {
          if (mode == ta::Compression::None) continue;
          SCOPED_TRACE(testing::Message()
                       << ta::to_string(mode) << " threads=" << threads);
          mc::SearchLimits limits;
          limits.threads = threads;
          limits.compression = mode;
          const auto v = models::verify_requirements(flavor, options, limits);
          EXPECT_EQ(v.r1, base.r1);
          EXPECT_EQ(v.r2, base.r2);
          EXPECT_EQ(v.r3, base.r3);
          EXPECT_EQ(v.r1_stats.states, base.r1_stats.states);
          EXPECT_EQ(v.r2_stats.states, base.r2_stats.states);
          EXPECT_EQ(v.r3_stats.states, base.r3_stats.states);
          EXPECT_EQ(v.r1_stats.depth, base.r1_stats.depth);
          EXPECT_EQ(v.r2_stats.depth, base.r2_stats.depth);
          EXPECT_EQ(v.r3_stats.depth, base.r3_stats.depth);
        }
      }
    }
  }
}

TEST(CompressionDeterminism, CounterexampleTracesMatchAcrossModes) {
  // At tmin == tmax R2 fails for the binary protocol: the shortest
  // counterexample (length and action labels) must be identical in every
  // mode and thread count, since trace reconstruction decodes states
  // back out of the compressed store.
  BuildOptions options;
  options.timing = {10, 10};
  const auto model = HeartbeatModel::build(Flavor::Binary, options);
  mc::Explorer explorer{model.net()};
  mc::SearchLimits base_limits;
  base_limits.threads = 1;
  const auto base = explorer.reach(model.r2_violation_any(), base_limits);
  ASSERT_TRUE(base.found);
  ASSERT_FALSE(base.trace.empty());
  for (const auto mode : kModes) {
    for (const unsigned threads : {1u, 8u}) {
      SCOPED_TRACE(testing::Message()
                   << ta::to_string(mode) << " threads=" << threads);
      mc::SearchLimits limits;
      limits.threads = threads;
      limits.compression = mode;
      const auto r = explorer.reach(model.r2_violation_any(), limits);
      ASSERT_TRUE(r.found);
      ASSERT_EQ(r.trace.size(), base.trace.size());
      for (std::size_t i = 0; i < r.trace.size(); ++i) {
        EXPECT_EQ(r.trace[i].action, base.trace[i].action);
        EXPECT_EQ(r.trace[i].state, base.trace[i].state);
      }
    }
  }
}

TEST(CompressionDeterminism, StoreBytesShrinkUnderCompression) {
  // The point of the exercise: the same exploration, smaller store.
  BuildOptions options;
  options.timing = {4, 10};
  options.participants = 2;
  const auto model = HeartbeatModel::build(Flavor::Static, options);
  std::size_t bytes[2] = {};
  std::uint64_t states[2] = {};
  for (int m = 0; m < 2; ++m) {
    mc::Explorer explorer{model.net()};
    mc::SearchLimits limits;
    limits.threads = 1;
    limits.compression = kModes[m];
    const auto stats = explorer.explore_all(limits);
    bytes[m] = stats.store_bytes;
    states[m] = stats.states;
  }
  EXPECT_EQ(states[0], states[1]);
  // The acceptance bar (>= 3x on the static n=2 sweep) is measured by
  // bench_statespace --json; here we pin a conservative 2x so the test
  // stays robust to small models.
  EXPECT_LT(bytes[1] * 2, bytes[0]);
}

TEST(ConcurrentStoreCompression, CollapseHammerStaysExact) {
  // Intern storm: 8 threads race the same reachable-state sample (each
  // in a different order) into one collapse-mode store. Every state must
  // end up interned exactly once, agree with the sequential store on
  // identity, and decode back bit-for-bit. Run under TSan via the tsan
  // preset ("compression" label).
  BuildOptions options;
  options.timing = {4, 10};
  options.participants = 2;
  const auto model = HeartbeatModel::build(Flavor::Static, options);
  const auto& net = model.net();
  const auto& codec = net.codec();

  // Deterministic BFS-order sample of the first ~40k reachable states.
  std::vector<ta::State> states;
  {
    mc::StateStore seen{codec, ta::Compression::None};
    std::vector<ta::State> frontier{net.initial_state()};
    seen.intern(frontier.front());
    states.push_back(frontier.front());
    while (!frontier.empty() && states.size() < 40000) {
      std::vector<ta::State> next;
      for (const auto& s : frontier) {
        for (auto& t : test::successors(net, s)) {
          if (states.size() >= 40000) break;
          if (seen.intern(t.target).second) {
            states.push_back(t.target);
            next.push_back(std::move(t.target));
          }
        }
      }
      frontier = std::move(next);
    }
  }
  ASSERT_GE(states.size(), 10000u);

  mc::ConcurrentStateStore store{codec, ta::Compression::Collapse};
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      Rng rng{static_cast<std::uint64_t>(w) * 977 + 13};
      // Each worker walks the sample from a different offset and stride
      // so insertions collide across shards and components.
      const std::size_t n = states.size();
      const std::size_t start = rng() % n;
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = (start + k * (w + 1)) % n;
        store.intern(states[i].slots());
      }
    });
  }
  for (auto& t : workers) t.join();

  ASSERT_EQ(store.size(), states.size());
  // Identity and decode agree with a sequential collapse store interning
  // in the same (BFS) order as discovery.
  ta::State out{codec.slot_count()};
  std::set<std::uint32_t> indices;
  for (const auto& s : states) {
    const auto [index, fresh] = store.intern(s.slots());
    EXPECT_FALSE(fresh);
    EXPECT_TRUE(indices.insert(index).second);
    store.load(index, out);
    EXPECT_EQ(out, s);
  }
  EXPECT_EQ(store.size(), states.size());
}

}  // namespace
}  // namespace ahb
