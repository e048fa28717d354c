// verify_full / verify_reduced: exhaustive model checking of R1–R3 on
// the static protocol, as a list of short points (at most a few hundred
// milliseconds each, so that a run repeats every point dozens of times)
// whose stores are about L2's size or larger: 3–16 MB unreduced, 2–4 MB
// reduced.
//
//   verify_full     n=2, unreduced, every tmin of tmax 2 and tmax 3
//                   (verdicts FTT, TTT and TFF, the three Table-1
//                   patterns): every successor interned as is
//                   (509,444 states).
//   verify_reduced  n=2 at the Table-1 points tmax 10, tmin {1,4,5},
//                   at tmax 6, tmin 4 and at tmax 3, tmin 3, plus n=3
//                   at tmax 3, tmin 1, with participant symmetry and
//                   partial-order reduction: every successor
//                   canonicalized, committed chains fused (344,104
//                   states).
//
// One job verifies every point once, in an order drawn from the seed;
// each job checks the verdicts against proto::expected_verdicts and
// the summed state count against its pin. The traced run adds a
// benchmark-side BFS over one point's R1 model that times successor
// generation, canonicalization and the requirement predicate
// separately, in batches, and an explore_all of the same model whose
// time the probe's phases do not cover is the explorer's interning.
#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "harness.hpp"
#include "mc/explorer.hpp"
#include "models/heartbeat_model.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace ahb::e2e {
namespace {

using models::BuildOptions;
using models::Flavor;

struct Point {
  int participants;
  int tmin;
  int tmax;
};

struct Sweep {
  std::vector<Point> points;
  std::uint64_t pinned_states;  ///< R1+R2+R3 states summed over points
  Point probe;                  ///< R1 model the traced BFS walks whole
};

Sweep sweep_for(bool reduced, bool smoke) {
  if (smoke) {
    if (reduced) return {{{2, 1, 10}, {2, 4, 10}}, 106'796, {1, 4, 10}};
    return {{{1, 1, 10}, {1, 4, 10}, {1, 5, 10}}, 28'600, {1, 4, 10}};
  }
  if (reduced) {
    return {{{2, 1, 10}, {2, 4, 10}, {2, 5, 10}, {2, 4, 6}, {2, 3, 3},
             {3, 1, 3}},
            344'104,
            {2, 4, 10}};
  }
  return {{{2, 1, 2}, {2, 2, 2}, {2, 1, 3}, {2, 2, 3}, {2, 3, 3}},
          509'444,
          {2, 3, 3}};
}

BuildOptions build_options(const Point& p) {
  BuildOptions options;
  options.timing = models::Timing{p.tmin, p.tmax};
  options.participants = p.participants;
  return options;
}

mc::SearchLimits search_limits(bool reduced) {
  mc::SearchLimits limits;
  limits.threads = 1;  // single-threaded: deterministic state counts
  if (reduced) {
    limits.symmetry = ta::Symmetry::Participants;
    limits.por = true;
  }
  return limits;
}

const char* tf(bool b) { return b ? "T" : "F"; }

/// Per-job totals of the library's own SearchStats.
struct JobStats {
  double r_seconds[3] = {0, 0, 0};
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t fused = 0;
  std::size_t store_bytes = 0;       ///< largest single search
  std::uint64_t store_states = 0;    ///< states of that search
};

void add_search(JobStats& stats, int requirement, const mc::SearchStats& s) {
  stats.r_seconds[requirement] += s.elapsed.count();
  stats.states += s.states;
  stats.transitions += s.transitions;
  stats.fused += s.fused;
  if (s.store_bytes > stats.store_bytes) {
    stats.store_bytes = s.store_bytes;
    stats.store_states = s.states;
  }
}

/// Visited states of the probe's BFS: slot vectors in one arena, indexed
/// by a hash set of their positions. The probe keeps its own set rather
/// than an mc store so that it does not depend on the store's
/// encodings; its cost is not reported.
class Visited {
 public:
  explicit Visited(std::size_t stride)
      : stride_(stride), index_(1 << 16, Hash{this}, Equal{this}) {}
  Visited(const Visited&) = delete;
  Visited& operator=(const Visited&) = delete;

  /// Adds `state` unless present; returns whether it was new.
  bool insert(std::span<const ta::Slot> state) {
    arena_.insert(arena_.end(), state.begin(), state.end());
    if (index_.insert(static_cast<std::uint32_t>(size() - 1)).second) {
      return true;
    }
    arena_.resize(arena_.size() - stride_);
    return false;
  }
  std::span<const ta::Slot> at(std::size_t i) const {
    return {arena_.data() + i * stride_, stride_};
  }
  std::size_t size() const { return arena_.size() / stride_; }

 private:
  struct Hash {
    const Visited* visited;
    std::size_t operator()(std::uint32_t i) const {
      return hash_span(visited->at(i));
    }
  };
  struct Equal {
    const Visited* visited;
    bool operator()(std::uint32_t a, std::uint32_t b) const {
      return std::ranges::equal(visited->at(a), visited->at(b));
    }
  };

  std::size_t stride_;
  std::vector<ta::Slot> arena_;
  std::unordered_set<std::uint32_t, Hash, Equal> index_;
};

struct ProbeResult {
  std::uint64_t expanded = 0;
  std::uint64_t successors = 0;
  std::uint64_t hits = 0;  ///< successors satisfying the R1 predicate
  double successor_s = 0;
  double canonicalize_s = 0;
  double predicate_s = 0;
};

/// Benchmark-side BFS over the whole state space of `model`, phase-timed
/// per batch: expand a batch of visited states (copy out + successor
/// generation), then canonicalize (reduced only) and test the R1
/// predicate on every successor. The reduced walk uses the ample-set
/// successor filter and orbit canonicalization but not the explorer's
/// committed-chain fusion.
ProbeResult bfs_probe(const models::HeartbeatModel& model, bool reduced) {
  constexpr std::size_t kBatch = 4096;
  const ta::Network& net = model.net();
  const mc::Pred target = model.r1_violation();
  const std::size_t stride = net.slot_count();
  Visited visited{stride};
  ta::SuccessorScratch scratch;
  ta::State state = net.initial_state();
  ta::State candidate{stride};
  std::vector<ta::Slot> targets;
  if (reduced) net.codec().canonicalize(state.slots_mut());
  visited.insert(state.slots());

  ProbeResult r;
  std::size_t next = 0;
  while (next < visited.size()) {
    const auto t0 = Clock::now();
    targets.clear();
    const std::size_t end = std::min(visited.size(), next + kBatch);
    const auto keep = [&](const ta::SuccessorView& v) {
      targets.insert(targets.end(), v.target.begin(), v.target.end());
    };
    for (; next < end; ++next) {
      state.assign(visited.at(next));
      if (reduced) {
        net.for_each_successor_reduced(state, scratch, keep);
      } else {
        net.for_each_successor(state, scratch, keep);
      }
      ++r.expanded;
    }
    const auto t1 = Clock::now();
    const std::size_t count = targets.size() / stride;
    if (reduced) {
      for (std::size_t i = 0; i < count; ++i) {
        net.codec().canonicalize(
            std::span<ta::Slot>{targets.data() + i * stride, stride});
      }
    }
    const auto t2 = Clock::now();
    for (std::size_t i = 0; i < count; ++i) {
      candidate.assign(
          std::span<const ta::Slot>{targets.data() + i * stride, stride});
      r.hits += target(ta::StateView{net, candidate}) ? 1 : 0;
    }
    const auto t3 = Clock::now();
    for (std::size_t i = 0; i < count; ++i) {
      visited.insert(
          std::span<const ta::Slot>{targets.data() + i * stride, stride});
    }
    r.successors += count;
    r.successor_s += std::chrono::duration<double>(t1 - t0).count();
    r.canonicalize_s += std::chrono::duration<double>(t2 - t1).count();
    r.predicate_s += std::chrono::duration<double>(t3 - t2).count();
  }
  return r;
}

}  // namespace

void run_verify(const Options& options, Report& report, Tracer& tracer,
                bool reduced) {
  const Sweep sweep = sweep_for(reduced, options.smoke);
  const mc::SearchLimits limits = search_limits(reduced);

  // The seed chooses the order the points are verified in; the work
  // and the verdicts are order-independent.
  std::vector<Point> order = sweep.points;
  Rng rng{derive_seed(options.seed, 1)};
  std::shuffle(order.begin(), order.end(), rng);

  // Set-up: the model builds verify_requirements performs per point
  // (with R1 watchdogs, then without), timed on their own.
  const auto setup = [&] {
    for (const Point& p : order) {
      BuildOptions with_monitor = build_options(p);
      with_monitor.r1_monitor = true;
      {
        auto span = tracer.span("models.build");
        (void)models::HeartbeatModel::build(Flavor::Static, with_monitor);
      }
      {
        auto span = tracer.span("models.build");
        (void)models::HeartbeatModel::build(Flavor::Static, build_options(p));
      }
    }
  };

  JobStats last;
  const auto job = [&](int, JobParts& parts) {
    JobStats stats;
    std::string verdicts;
    for (std::size_t k = 0; k < order.size(); ++k) {
      const Point& p = order[k];
      models::Verdicts v;
      parts.part(k, [&] {
        auto span = tracer.span("models.verify_requirements");
        v = models::verify_requirements(Flavor::Static, build_options(p),
                                        limits);
      });
      add_search(stats, 0, v.r1_stats);
      add_search(stats, 1, v.r2_stats);
      add_search(stats, 2, v.r3_stats);
      const auto want = proto::expected_verdicts(
          Flavor::Static, proto::Timing{p.tmin, p.tmax});
      const std::string got = std::string{tf(v.r1)} + tf(v.r2) + tf(v.r3);
      const std::string name = "n" + std::to_string(p.participants) +
                               "/tmin" + std::to_string(p.tmin) + "/tmax" +
                               std::to_string(p.tmax);
      report.check(v.r1 == want.r1 && v.r2 == want.r2 && v.r3 == want.r3,
                   name + " verdicts " + got + ", expected " + tf(want.r1) +
                       tf(want.r2) + tf(want.r3));
      verdicts += " " + name + ":" + got;
    }
    report.check(stats.states == sweep.pinned_states,
                 "states " + std::to_string(stats.states) + ", pinned " +
                     std::to_string(sweep.pinned_states));
    if (last.states == 0) {
      report.note("verdicts" + verdicts + ", " +
                  std::to_string(stats.states) + " states");
    }
    last = stats;
  };

  measure(options, report, tracer, setup, job);
  if (!options.trace) return;

  const char* target = "job_s";
  const double search_s =
      last.r_seconds[0] + last.r_seconds[1] + last.r_seconds[2];
  report.layer("mc.r1_s", last.r_seconds[0], "s", target);
  report.layer("mc.r2_s", last.r_seconds[1], "s", target);
  report.layer("mc.r3_s", last.r_seconds[2], "s", target);
  report.layer("mc.states", static_cast<double>(last.states), "count", target);
  report.layer("mc.transitions", static_cast<double>(last.transitions),
               "count", target);
  report.layer("mc.fused", static_cast<double>(last.fused), "count", target);
  report.layer("mc.states_per_s",
               static_cast<double>(last.states) / search_s, "1/s", target);
  report.layer("mc.store_bytes", static_cast<double>(last.store_bytes),
               "bytes", "peak_rss_mb");
  report.layer("mc.bytes_per_state",
               static_cast<double>(last.store_bytes) /
                   static_cast<double>(std::max<std::uint64_t>(
                       last.store_states, 1)),
               "bytes", "peak_rss_mb");
  report.layer("models.build_s", tracer.self_total("models.build"), "s",
               "setup_s");

  BuildOptions probe_options = build_options(sweep.probe);
  probe_options.r1_monitor = true;
  const auto model =
      models::HeartbeatModel::build(Flavor::Static, probe_options);
  const ProbeResult probe = bfs_probe(model, reduced);
  const double successor_s_per_state =
      probe.successor_s / static_cast<double>(probe.expanded);
  const double canonicalize_s_per_successor =
      probe.canonicalize_s / static_cast<double>(probe.successors);
  report.layer("ta.successor_ns", successor_s_per_state * 1e9, "ns", target);
  report.layer("ta.successors_per_state",
               static_cast<double>(probe.successors) /
                   static_cast<double>(probe.expanded),
               "count", target);
  if (reduced) {
    report.layer("ta.canonicalize_ns", canonicalize_s_per_successor * 1e9,
                 "ns", target);
  }
  report.layer("models.predicate_ns",
               probe.predicate_s * 1e9 / static_cast<double>(probe.successors),
               "ns", target);

  // Interning, as the explorer does it with its default store: an
  // explore_all of the same model, minus the successor generation and
  // canonicalization the probe timed for that many states and
  // transitions, per transition. In verify_reduced the remainder also
  // carries the explorer's committed-chain fusion.
  const mc::SearchStats explored = mc::Explorer{model.net()}.explore_all(limits);
  if (!reduced) {
    report.check(explored.states == probe.expanded,
                 "BFS probe visited " + std::to_string(probe.expanded) +
                     " states, explore_all " +
                     std::to_string(explored.states));
  }
  const double transitions = static_cast<double>(explored.transitions);
  const double interning_s =
      explored.elapsed.count() -
      successor_s_per_state * static_cast<double>(explored.states) -
      canonicalize_s_per_successor * transitions;
  report.layer("mc.intern_ns", interning_s * 1e9 / transitions, "ns", target);
  report.layer("mc.intern_new_ratio",
               static_cast<double>(explored.states) / transitions, "ratio",
               target);
}

}  // namespace ahb::e2e
