// Cluster-scale engine benchmark: how many heartbeats per second can
// one coordinator process sustain, and how fast does it detect a crash,
// as the member count climbs 1k -> 10k -> 100k?
//
// Three measurements per size on the scale engine (hb::ScaleCluster):
//   - steady state: lossless rounds of the static protocol; reports
//     beats/sec and ns/beat (the per-beat cost must stay near-constant
//     from 10k to 100k — that is the O(1) timer-wheel claim) and the
//     wheel's memory per node: the peak of stored_events() / n, sampled
//     after every tick.
//   - detection latency: one random member crashes mid-run; the
//     coordinator accelerates down the waiting-time ladder and
//     inactivates. Reports p50/p99/max over seeded runs against the
//     analytic bound (3*tmax - tmin, plus the in-flight allowance).
//   - membership churn: an expanding join storm (every member starts
//     unjoined and beats in) and, for the dynamic variant, a staggered
//     leave/rejoin wave riding a steady cluster.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "hb/cluster_scale.hpp"
#include "rv/availability.hpp"
#include "rv/monitor.hpp"
#include "rv/suspicion.hpp"

namespace {

using namespace ahb;

constexpr hb::Time kTmin = 4;
constexpr hb::Time kTmax = 10;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

hb::ClusterConfig scale_config(hb::Variant variant, int n,
                               std::uint64_t seed) {
  hb::ClusterConfig config;
  config.protocol.variant = variant;
  config.protocol.tmin = kTmin;
  config.protocol.tmax = kTmax;
  config.participants = n;
  config.max_delay = -1;  // in-spec random delay in [0, tmin/2]
  config.seed = seed;
  return config;
}

struct SteadyResult {
  std::uint64_t rounds = 0;
  std::uint64_t beats = 0;
  double seconds = 0;
  double wheel_entries_per_node = 0;  ///< peak stored_events() / n
  sim::NetworkStats net;
  double beats_per_sec() const {
    return seconds > 0 ? static_cast<double>(beats) / seconds : 0;
  }
  double ns_per_beat() const {
    return beats > 0 ? seconds * 1e9 / static_cast<double>(beats) : 0;
  }
};

// Sized so every configuration moves ~2M beats: the 100k run is ~20
// rounds, the 1k run ~2000 — enough for the rate to stabilise without
// the small sizes dominating wall time.
std::uint64_t steady_rounds(int n) {
  return std::max<std::uint64_t>(20, 2'000'000 / static_cast<unsigned>(n));
}

/// Runs a started cluster to `horizon` one tick at a time; returns the
/// peak of stored_events() per node over the run.
double run_sampling_wheel(hb::ScaleCluster& cluster, sim::Time horizon) {
  std::size_t peak = cluster.stored_events();
  for (sim::Time t = cluster.now() + 1; t <= horizon; ++t) {
    cluster.run_until(t);
    peak = std::max(peak, cluster.stored_events());
  }
  return static_cast<double>(peak) / cluster.participant_count();
}

SteadyResult steady_state_scale(int n) {
  hb::ScaleCluster cluster{scale_config(hb::Variant::Static, n, 42)};
  const auto start = std::chrono::steady_clock::now();
  cluster.start();
  SteadyResult r;
  r.wheel_entries_per_node = run_sampling_wheel(
      cluster, static_cast<sim::Time>(steady_rounds(n)) * kTmax + 1);
  r.seconds = seconds_since(start);
  r.rounds = cluster.stats().rounds;
  r.beats = cluster.stats().beats;
  r.net = cluster.network_stats();
  return r;
}

struct MonitoredResult {
  SteadyResult steady;
  std::uint64_t monitor_events = 0;  ///< sum of the sinks' events_seen
  std::size_t violations = 0;
  double up_fraction = 1.0;
};

// The same steady-state run with the full rv monitor stack attached
// (requirement + suspicion + availability). The delta against the
// plain run is the runtime-verification overhead; a clean run must
// report zero violations and full availability.
MonitoredResult steady_state_scale_monitored(int n) {
  hb::ScaleCluster cluster{scale_config(hb::Variant::Static, n, 42)};

  rv::RequirementMonitor::Config monitor_config;
  monitor_config.variant = hb::Variant::Static;
  monitor_config.timing = proto::Timing{kTmin, kTmax};
  monitor_config.participants = n;
  const auto bounds = rv::MonitorBounds::defaults(monitor_config.timing,
                                                  monitor_config.variant, true);
  rv::RequirementMonitor requirements{monitor_config, bounds};
  requirements.attach(cluster);
  rv::SuspicionMonitor::Config suspicion_config;
  suspicion_config.variant = hb::Variant::Static;
  suspicion_config.timing = monitor_config.timing;
  suspicion_config.participants = n;
  rv::SuspicionMonitor suspicion{suspicion_config, bounds};
  suspicion.attach(cluster);
  rv::AvailabilityStats availability{n};
  cluster.add_sink(&availability);

  const sim::Time horizon =
      static_cast<sim::Time>(steady_rounds(n)) * kTmax + 1;
  const auto start = std::chrono::steady_clock::now();
  cluster.start();
  MonitoredResult r;
  r.steady.wheel_entries_per_node = run_sampling_wheel(cluster, horizon);
  cluster.sinks().finish(horizon);
  r.steady.seconds = seconds_since(start);
  r.steady.rounds = cluster.stats().rounds;
  r.steady.beats = cluster.stats().beats;
  r.steady.net = cluster.network_stats();
  r.monitor_events = requirements.events_seen() + suspicion.events_seen() +
                     availability.events_seen();
  r.violations = requirements.violations().size() +
                 suspicion.violations().size();
  r.up_fraction = availability.summary().up_fraction();
  return r;
}

struct DetectResult {
  int runs = 0;
  int detected = 0;
  sim::Time p50 = 0;
  sim::Time p99 = 0;
  sim::Time max = 0;
  double seconds = 0;
};

DetectResult detection_latency(int n, int runs) {
  std::vector<sim::Time> delays;
  const auto start = std::chrono::steady_clock::now();
  for (int seed = 1; seed <= runs; ++seed) {
    hb::ScaleCluster cluster{
        scale_config(hb::Variant::Static, n, static_cast<std::uint64_t>(seed))};
    const int victim = 1 + (seed * 7919) % n;
    const sim::Time crash_at = 2 * kTmax + (seed * 37) % (3 * kTmax);
    cluster.crash_participant_at(victim, crash_at);
    cluster.start();
    cluster.run_until(crash_at + 20 * kTmax);
    if (cluster.coordinator_inactivated_at() == hb::kNever) continue;
    delays.push_back(cluster.coordinator_inactivated_at() - crash_at);
  }
  DetectResult r;
  r.seconds = seconds_since(start);
  r.runs = runs;
  r.detected = static_cast<int>(delays.size());
  if (!delays.empty()) {
    std::sort(delays.begin(), delays.end());
    r.p50 = delays[(delays.size() - 1) * 50 / 100];
    r.p99 = delays[(delays.size() - 1) * 99 / 100];
    r.max = delays.back();
  }
  return r;
}

struct JoinStormResult {
  int joined = 0;
  sim::Time sim_time = 0;
  double seconds = 0;
  std::uint64_t replies = 0;
};

// Every member starts unjoined (expanding variant) and join-beats every
// tmin until the coordinator's heartbeat confirms it.
JoinStormResult join_storm(int n) {
  hb::ScaleCluster cluster{scale_config(hb::Variant::Expanding, n, 7)};
  const auto start = std::chrono::steady_clock::now();
  cluster.start();
  sim::Time horizon = 0;
  while (cluster.member_count() < n && horizon < 100 * kTmax) {
    horizon += kTmax;
    cluster.run_until(horizon);
  }
  JoinStormResult r;
  r.seconds = seconds_since(start);
  r.joined = cluster.member_count();
  r.sim_time = horizon;
  r.replies = cluster.stats().replies;
  return r;
}

struct ChurnResult {
  int leaves = 0;
  int members = 0;
  std::uint64_t beats = 0;
  double seconds = 0;
};

// Dynamic variant: everyone joins, then 1% of the cluster leaves at
// staggered instants and gracefully rejoins a few rounds later.
ChurnResult churn_wave(int n) {
  hb::ScaleCluster cluster{scale_config(hb::Variant::Dynamic, n, 11)};
  const int leavers = std::max(1, n / 100);
  const sim::Time settled = 20 * kTmax;
  for (int i = 0; i < leavers; ++i) {
    const int id = 1 + (i * 97) % n;
    const sim::Time leave_at = settled + (i % 10) * kTmax;
    cluster.leave_at(id, leave_at);
    // The leave lands at the reply to the next beat; the rejoin waits
    // out the graceful window with slack so none are dropped as races.
    cluster.rejoin_at(id, leave_at + 6 * kTmax);
  }
  const auto start = std::chrono::steady_clock::now();
  cluster.start();
  cluster.run_until(settled + 40 * kTmax);
  ChurnResult r;
  r.seconds = seconds_since(start);
  r.leaves = leavers;
  r.members = cluster.member_count();
  r.beats = cluster.stats().beats;
  return r;
}

int detection_runs(int n) { return n >= 100'000 ? 10 : n >= 10'000 ? 20 : 50; }

/// Plain/monitored pairs per size behind the overhead columns.
int overhead_pairs(int n) { return n >= 100'000 ? 3 : 5; }

/// Median and quartiles of a small sample, interpolated between ranks
/// (so three samples still give q1 < median < q3 when they differ).
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

Quartiles quartiles(std::vector<double> sample) {
  std::sort(sample.begin(), sample.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(sample.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sample.size() - 1);
    return sample[lo] +
           (pos - static_cast<double>(lo)) * (sample[hi] - sample[lo]);
  };
  return Quartiles{at(0.25), at(0.5), at(0.75)};
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_bench_args(argc, argv);
  std::vector<int> sizes{1'000, 10'000, 100'000};
  if (args.participants > 0) sizes = {args.participants};

  if (!args.json) {
    std::printf("== Cluster-scale heartbeat engine (static protocol, "
                "tmin=%lld tmax=%lld, lossless, in-spec delays) ==\n\n",
                static_cast<long long>(kTmin), static_cast<long long>(kTmax));
    std::printf("%9s %8s %12s %14s %10s %9s  %s\n", "n", "rounds", "beats",
                "beats/sec", "ns/beat", "wheel/n",
                "detect p50/p99/max (ticks)");
  }

  // One untimed run first: the first timed row would otherwise pay for
  // cold caches, page faults and allocator growth, which made the plain
  // n=1,000 row slower than its monitored twin.
  steady_state_scale(std::min(sizes.front(), 1'000));

  for (const int n : sizes) {
    // The overhead columns are medians over alternating plain and
    // monitored runs: on a shared host one pair swings by tens of
    // percent. The steady rows report the last pair.
    const int pairs = overhead_pairs(n);
    SteadyResult steady;
    MonitoredResult monitored;
    std::vector<double> overheads;
    std::vector<double> ns_per_event;
    for (int pair = 0; pair < pairs; ++pair) {
      steady = steady_state_scale(n);
      monitored = steady_state_scale_monitored(n);
      overheads.push_back(
          steady.beats_per_sec() > 0
              ? (1.0 - monitored.steady.beats_per_sec() /
                           steady.beats_per_sec()) *
                    100.0
              : 0);
      ns_per_event.push_back(
          monitored.monitor_events > 0
              ? std::max(0.0, monitored.steady.seconds - steady.seconds) *
                    1e9 / static_cast<double>(monitored.monitor_events)
              : 0);
    }
    const Quartiles overhead = quartiles(overheads);
    const double monitor_ns_per_event = quartiles(ns_per_event).median;
    const auto detect = detection_latency(n, detection_runs(n));
    if (args.json) {
      std::printf(
          "{\"bench\": \"cluster_scale/steady_n%d\", \"participants\": %d, "
          "\"rounds\": %llu, \"beats\": %llu, \"seconds\": %.3f, "
          "\"beats_per_sec\": %.0f, \"ns_per_beat\": %.1f, "
          "\"wheel_entries_per_node\": %.3f, %s}\n",
          n, n, static_cast<unsigned long long>(steady.rounds),
          static_cast<unsigned long long>(steady.beats), steady.seconds,
          steady.beats_per_sec(), steady.ns_per_beat(),
          steady.wheel_entries_per_node,
          bench::network_stats_fields(steady.net).c_str());
      std::printf(
          "{\"bench\": \"cluster_scale/steady_monitored_n%d\", "
          "\"participants\": %d, \"rounds\": %llu, \"beats\": %llu, "
          "\"seconds\": %.3f, \"beats_per_sec\": %.0f, \"ns_per_beat\": %.1f, "
          "\"wheel_entries_per_node\": %.3f, \"monitor_events\": %llu, "
          "\"monitor_ns_per_event\": %.1f, "
          "\"monitor_overhead_pct\": %.1f, \"monitor_overhead_q1\": %.1f, "
          "\"monitor_overhead_q3\": %.1f, \"overhead_pairs\": %d, "
          "\"violations\": %zu, \"availability_up_fraction\": %.4f}\n",
          n, n, static_cast<unsigned long long>(monitored.steady.rounds),
          static_cast<unsigned long long>(monitored.steady.beats),
          monitored.steady.seconds, monitored.steady.beats_per_sec(),
          monitored.steady.ns_per_beat(),
          monitored.steady.wheel_entries_per_node,
          static_cast<unsigned long long>(monitored.monitor_events),
          monitor_ns_per_event, overhead.median, overhead.q1, overhead.q3,
          pairs, monitored.violations, monitored.up_fraction);
      std::printf(
          "{\"bench\": \"cluster_scale/detect_n%d\", \"participants\": %d, "
          "\"runs\": %d, \"detected\": %d, \"p50\": %lld, \"p99\": %lld, "
          "\"max\": %lld, \"seconds\": %.3f}\n",
          n, n, detect.runs, detect.detected,
          static_cast<long long>(detect.p50),
          static_cast<long long>(detect.p99),
          static_cast<long long>(detect.max), detect.seconds);
    } else {
      std::printf("%9d %8llu %12llu %14.0f %10.1f %9.3f  %lld/%lld/%lld\n", n,
                  static_cast<unsigned long long>(steady.rounds),
                  static_cast<unsigned long long>(steady.beats),
                  steady.beats_per_sec(), steady.ns_per_beat(),
                  steady.wheel_entries_per_node,
                  static_cast<long long>(detect.p50),
                  static_cast<long long>(detect.p99),
                  static_cast<long long>(detect.max));
      std::printf("%9s %8s %12s %14.0f %10.1f %9.3f  rv on: %.1f%% overhead "
                  "(median of %d pairs, q1..q3 %.1f..%.1f%%), "
                  "%.1f ns/event, %zu violation(s)\n",
                  "", "", "", monitored.steady.beats_per_sec(),
                  monitored.steady.ns_per_beat(),
                  monitored.steady.wheel_entries_per_node, overhead.median,
                  pairs,
                  overhead.q1, overhead.q3, monitor_ns_per_event,
                  monitored.violations);
    }
  }

  // Membership churn at the largest measured size.
  const int n = sizes.back();
  const auto storm = join_storm(n);
  const auto churn = churn_wave(n);
  if (args.json) {
    std::printf(
        "{\"bench\": \"cluster_scale/join_storm_n%d\", \"participants\": %d, "
        "\"joined\": %d, \"sim_ticks\": %lld, \"join_replies\": %llu, "
        "\"seconds\": %.3f}\n",
        n, n, storm.joined, static_cast<long long>(storm.sim_time),
        static_cast<unsigned long long>(storm.replies), storm.seconds);
    std::printf(
        "{\"bench\": \"cluster_scale/churn_n%d\", \"participants\": %d, "
        "\"leavers\": %d, \"members_after\": %d, \"beats\": %llu, "
        "\"seconds\": %.3f}\n",
        n, n, churn.leaves, churn.members,
        static_cast<unsigned long long>(churn.beats), churn.seconds);
  } else {
    std::printf("\njoin storm  n=%d: %d joined in %lld sim ticks "
                "(%.3fs wall)\n",
                n, storm.joined, static_cast<long long>(storm.sim_time),
                storm.seconds);
    std::printf("churn wave  n=%d: %d left+rejoined, %d members after "
                "(%.3fs wall)\n",
                n, churn.leaves, churn.members, churn.seconds);
  }
  return 0;
}
