// scale_steady: hb::ScaleCluster in steady state — static protocol,
// tmin 4, tmax 10, lossless, in-spec random delays — at sizes on both
// sides of the per-core caches.
//
// The set-up builds, starts and warms up five clusters, and it runs
// again before every job, so each job advances the same clusters from
// the same state:
//   n=10k  plain              20 rounds (200k beats)
//   n=10k  hand-written rv    20 rounds (R1–R3, suspicion, availability)
//   n=100k plain               2 rounds (200k beats)
//   n=100k hand-written rv     2 rounds
//   n=1000 shipped formulas    1 round  (r1, r2, r3, s2 FormulaMonitors)
// and checks every pass delivered exactly rounds x n beats. Each large
// pass is timed in two equal segments, each segment its own job part,
// so a segment's fastest time is taken over jobs on identical input;
// parts this short repeat dozens of times in a run. The formula round
// is one part: its work comes in a few ticks of the round. The formula
// pass is small because FormulaMonitor costs O(n) per event (forall
// expands to one copy per participant). After the jobs the monitors
// must report no violation and full availability, and 50 seeded crash
// runs at n=10k must all be detected within 3*tmax - tmin ticks.
//
// The traced run adds: per-round latency (one run_until per round),
// the SinkChain dispatch cost of a full-interest null sink, each
// hand-written monitor's cost replayed alone on a recorded stream, and
// FormulaMonitor against the hand-written stack at n = 10, 100, 1000.
#include <algorithm>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "harness.hpp"
#include "hb/cluster_scale.hpp"
#include "rv/availability.hpp"
#include "rv/monitor.hpp"
#include "rv/pltl/formulas.hpp"
#include "rv/suspicion.hpp"
#include "util/rng.hpp"

namespace ahb::e2e {
namespace {

constexpr hb::Time kTmin = 4;
constexpr hb::Time kTmax = 10;
constexpr proto::Timing kTiming{kTmin, kTmax};

hb::ClusterConfig cluster_config(int n, std::uint64_t seed) {
  hb::ClusterConfig config;
  config.protocol.variant = hb::Variant::Static;
  config.protocol.tmin = kTmin;
  config.protocol.tmax = kTmax;
  config.protocol.fixed_bounds = true;
  config.participants = n;
  config.max_delay = -1;  // in-spec random delay
  config.seed = seed;
  return config;
}

rv::MonitorBounds monitor_bounds() {
  return rv::MonitorBounds::defaults(kTiming, hb::Variant::Static, true);
}

/// The hand-written runtime-verification stack.
struct Handwritten {
  explicit Handwritten(int n)
      : requirements{{hb::Variant::Static, kTiming, true, n}, monitor_bounds()},
        suspicion{{hb::Variant::Static, kTiming, n}, monitor_bounds()},
        availability{n} {}

  std::vector<rv::EventSink*> sinks() {
    return {&requirements, &suspicion, &availability};
  }
  std::uint64_t events_seen() const {
    return requirements.events_seen() + suspicion.events_seen() +
           availability.events_seen();
  }
  std::size_t violations() const {
    return requirements.violations().size() + suspicion.violations().size();
  }

  rv::RequirementMonitor requirements;
  rv::SuspicionMonitor suspicion;
  rv::AvailabilityStats availability;
};

/// The shipped formulas compiled for the static protocol at n nodes.
std::vector<std::unique_ptr<rv::pltl::FormulaMonitor>> compile_formulas(
    int n, Tracer& tracer) {
  auto span = tracer.span("rv.compile");
  rv::pltl::BindParams params;
  params.variant = hb::Variant::Static;
  params.timing = kTiming;
  params.fixed_bounds = true;
  params.participants = n;
  return shipped_monitors(params);
}

enum class Stack { Plain, Handwritten, Formulas };

/// One steady-state cluster, warmed up. Monitors are declared before
/// the cluster, so they outlive it as SinkChain requires.
struct Steady {
  Steady(int n_, Stack stack_, std::uint64_t seed, Tracer& tracer)
      : n(n_), stack(stack_) {
    if (stack == Stack::Handwritten) handwritten = std::make_unique<Handwritten>(n);
    if (stack == Stack::Formulas) formulas = compile_formulas(n, tracer);
    {
      auto span = tracer.span("hb.construct");
      cluster = std::make_unique<hb::ScaleCluster>(cluster_config(n, seed));
    }
    if (handwritten) {
      for (rv::EventSink* sink : handwritten->sinks()) cluster->add_sink(sink);
    }
    for (auto& monitor : formulas) cluster->add_sink(monitor.get());
    {
      auto span = tracer.span("hb.start");
      cluster->start();
    }
    // Warm-up: the first round carries the initial beat; settle past it.
    advance(stack == Stack::Formulas ? 1 : 2, tracer, "hb.warmup");
  }

  /// Runs `rounds` more rounds as one run_until; returns beats sent.
  std::uint64_t advance(int rounds, Tracer& tracer, const char* span_name) {
    const std::uint64_t before = cluster->stats().beats;
    horizon += rounds * kTmax;
    auto span = tracer.span(span_name);
    cluster->run_until(horizon);
    return cluster->stats().beats - before;
  }

  std::uint64_t formula_violations() const {
    std::uint64_t total = 0;
    for (const auto& monitor : formulas) total += monitor->violations_total();
    return total;
  }

  int n;
  Stack stack;
  sim::Time horizon = 1;
  std::unique_ptr<Handwritten> handwritten;
  std::vector<std::unique_ptr<rv::pltl::FormulaMonitor>> formulas;
  std::unique_ptr<hb::ScaleCluster> cluster;
};

struct Pass {
  int n;
  Stack stack;
  int rounds;    ///< per job
  int segments;  ///< equal slices of the rounds, each its own job part
};

std::vector<Pass> passes(bool smoke) {
  if (smoke) {
    return {{1'000, Stack::Plain, 10, 10},
            {1'000, Stack::Handwritten, 10, 10},
            {5'000, Stack::Plain, 2, 2},
            {5'000, Stack::Handwritten, 2, 2},
            {50, Stack::Formulas, 1, 1}};
  }
  return {{10'000, Stack::Plain, 20, 2},
          {10'000, Stack::Handwritten, 20, 2},
          {100'000, Stack::Plain, 2, 2},
          {100'000, Stack::Handwritten, 2, 2},
          {1'000, Stack::Formulas, 1, 1}};
}

/// Sink that records every protocol and channel event, in order.
class Recorder final : public rv::EventSink {
 public:
  using Event = std::variant<hb::ProtocolEvent, sim::ChannelEvent>;
  std::uint32_t protocol_interest() const override {
    return rv::kAllProtocolEvents;
  }
  std::uint32_t channel_interest() const override {
    return rv::kAllChannelEvents;
  }
  void on_protocol_event(const hb::ProtocolEvent& e) override {
    events.emplace_back(e);
  }
  void on_channel_event(const sim::ChannelEvent& e) override {
    events.emplace_back(e);
  }
  std::vector<Event> events;
};

/// Full-interest sink that does nothing but count: isolates the cost of
/// event construction and SinkChain dispatch.
class NullSink final : public rv::EventSink {
 public:
  std::uint32_t protocol_interest() const override {
    return rv::kAllProtocolEvents;
  }
  std::uint32_t channel_interest() const override {
    return rv::kAllChannelEvents;
  }
  void on_protocol_event(const hb::ProtocolEvent&) override { ++events; }
  void on_channel_event(const sim::ChannelEvent&) override { ++events; }
  std::uint64_t events = 0;
};

struct Recording {
  std::vector<Recorder::Event> events;
  std::uint64_t beats = 0;
  sim::Time horizon = 0;
};

/// Events of a plain n-node cluster over two warm-up rounds and then
/// `rounds` steady ones.
Recording record(int n, int rounds, std::uint64_t seed) {
  Recorder recorder;
  hb::ScaleCluster cluster{cluster_config(n, seed)};
  cluster.add_sink(&recorder);
  cluster.start();
  const sim::Time horizon = 1 + static_cast<sim::Time>(rounds + 2) * kTmax;
  cluster.run_until(horizon);
  return {std::move(recorder.events), cluster.stats().beats, horizon};
}

/// Feeds the events a sink subscribes to, in order, then finish().
std::uint64_t replay(const Recording& rec, rv::EventSink& sink) {
  const std::uint32_t pmask = sink.protocol_interest();
  const std::uint32_t cmask = sink.channel_interest();
  std::uint64_t delivered = 0;
  for (const auto& event : rec.events) {
    if (const auto* pe = std::get_if<hb::ProtocolEvent>(&event)) {
      if ((pmask & rv::protocol_bit(pe->kind)) == 0) continue;
      sink.on_protocol_event(*pe);
    } else {
      const auto& ce = std::get<sim::ChannelEvent>(event);
      if ((cmask & rv::channel_bit(ce.kind)) == 0) continue;
      sink.on_channel_event(ce);
    }
    ++delivered;
  }
  sink.finish(rec.horizon);
  return delivered;
}

struct ReplayCost {
  double seconds = 0;    ///< per replay
  double delivered = 0;  ///< events the sinks received, per replay
};

/// Replays `rec` through fresh sinks from `make` (which owns them until
/// its next call) until at least 50 ms have been spent; sink
/// construction is outside the timing.
template <typename Make>
ReplayCost timed_replay(const Recording& rec, Make&& make) {
  double seconds = 0;
  std::uint64_t delivered = 0;
  int reps = 0;
  do {
    const std::vector<rv::EventSink*> sinks = make();
    const auto start = Clock::now();
    for (rv::EventSink* sink : sinks) delivered += replay(rec, *sink);
    seconds += seconds_since(start);
    ++reps;
  } while (seconds < 0.05);
  return {seconds / reps, static_cast<double>(delivered) / reps};
}

}  // namespace

void run_scale(const Options& options, Report& report, Tracer& tracer) {
  const std::vector<Pass> plan = passes(options.smoke);
  const std::uint64_t cluster_seed = derive_seed(options.seed, 2);

  std::vector<std::unique_ptr<Steady>> clusters;
  const auto setup = [&] {
    clusters.clear();
    for (const Pass& pass : plan) {
      clusters.push_back(
          std::make_unique<Steady>(pass.n, pass.stack, cluster_seed, tracer));
    }
  };
  const auto job = [&](int, JobParts& parts) {
    std::size_t part = 0;  // one per (pass, segment)
    for (std::size_t i = 0; i < plan.size(); ++i) {
      std::uint64_t beats = 0;
      for (int seg = 0; seg < plan[i].segments; ++seg) {
        parts.part(part++, [&] {
          beats += clusters[i]->advance(plan[i].rounds / plan[i].segments,
                                        tracer, "hb.run_until");
        });
      }
      const std::uint64_t want =
          static_cast<std::uint64_t>(plan[i].rounds) * plan[i].n;
      report.check(beats == want, "n=" + std::to_string(plan[i].n) + " sent " +
                                      std::to_string(beats) + " beats, want " +
                                      std::to_string(want));
    }
  };
  measure(options, report, tracer, setup, job);

  for (auto& steady : clusters) {
    steady->cluster->sinks().finish(steady->horizon);
    const std::string name = "n=" + std::to_string(steady->n);
    report.check(steady->cluster->member_count() == steady->n &&
                     steady->cluster->coordinator_status() ==
                         hb::Status::Active,
                 name + " cluster lost members or its coordinator");
    if (steady->handwritten) {
      const auto& h = *steady->handwritten;
      report.check(h.violations() == 0,
                   name + " monitors report " +
                       std::to_string(h.violations()) + " violation(s)");
      report.check(h.availability.summary().up_fraction() == 1.0,
                   name + " availability below 1.0");
    }
    if (steady->stack == Stack::Formulas) {
      report.check(steady->formulas.size() ==
                       rv::pltl::shipped_monitor_specs().size(),
                   "a shipped formula fails to compile");
      report.check(steady->formula_violations() == 0,
                   name + " formulas report violations");
    }
  }

  // Crash detection: one random member crashes; the static coordinator
  // must inactivate within the corrected R1 bound.
  const int crash_runs = options.smoke ? 5 : 50;
  const int crash_n = options.smoke ? 1'000 : 10'000;
  const hb::Time bound = proto::coordinator_detection_bound(kTiming);
  Rng rng{derive_seed(options.seed, 3)};
  hb::Time worst = 0;
  for (int run = 0; run < crash_runs; ++run) {
    hb::ScaleCluster cluster{cluster_config(crash_n, rng())};
    const int victim = 1 + static_cast<int>(rng.below(crash_n));
    const hb::Time crash_at =
        2 * kTmax + static_cast<hb::Time>(rng.below(3 * kTmax));
    cluster.crash_participant_at(victim, crash_at);
    cluster.start();
    cluster.run_until(crash_at + bound + kTmax);
    const hb::Time at = cluster.coordinator_inactivated_at();
    const hb::Time delay = at == hb::kNever ? hb::kNever : at - crash_at;
    worst = std::max(worst, delay);
    report.check(delay <= bound, "crash of member " + std::to_string(victim) +
                                     " at " + std::to_string(crash_at) +
                                     " detected after " +
                                     std::to_string(delay) + " ticks");
  }
  report.note(std::to_string(crash_runs) + " crash runs at n=" +
              std::to_string(crash_n) + ": worst detection " +
              std::to_string(worst) + " ticks (bound " +
              std::to_string(bound) + ")");
  if (!options.trace) return;

  // ---- per-layer probes ----
  report.layer("hb.setup_s",
               tracer.self_total("hb.construct") +
                   tracer.self_total("hb.start") +
                   tracer.self_total("hb.warmup"),
               "s", "setup_s");
  report.layer("rv.compile_s", tracer.self_total("rv.compile"), "s",
               "setup_s");

  // Round latency: one run_until per round on the warm plain clusters.
  struct RoundProbe {
    std::size_t cluster;  ///< index into `plan`
    int rounds;
    const char* span;
    const char* suffix;
  };
  for (const RoundProbe& probe :
       {RoundProbe{0, options.smoke ? 20 : 200, "hb.round_n10k", "n10k"},
        RoundProbe{2, options.smoke ? 3 : 30, "hb.round_n100k", "n100k"}}) {
    Steady& steady = *clusters[probe.cluster];
    const std::uint64_t sent_before = steady.cluster->network_stats().sent;
    std::uint64_t beats = 0;
    for (int r = 0; r < probe.rounds; ++r) {
      beats += steady.advance(1, tracer, probe.span);
    }
    const std::vector<double> rounds_s = tracer.durations(probe.span);
    double total = 0;
    for (const double s : rounds_s) total += s;
    const std::string suffix = probe.suffix;
    report.layer("hb.round_us_p50_" + suffix, quantile(rounds_s, 0.5) * 1e6,
                 "us", "job_s");
    report.layer("hb.round_us_p90_" + suffix, quantile(rounds_s, 0.9) * 1e6,
                 "us", "job_s");
    report.layer("hb.engine_ns_per_beat_" + suffix,
                 total * 1e9 / static_cast<double>(beats), "ns", "job_s");
    if (probe.cluster == 0) {
      report.layer("sim.msgs_per_beat",
                   static_cast<double>(steady.cluster->network_stats().sent -
                                       sent_before) /
                       static_cast<double>(beats),
                   "count", "job_s");
    }
  }

  // SinkChain dispatch: a full-interest null sink against a plain
  // cluster of the same size and seed, advanced in alternating chunks so
  // drift in machine speed cancels; per event the sink received.
  const int small = plan[0].n;
  {
    NullSink null_sink;
    hb::ScaleCluster plain{cluster_config(small, cluster_seed)};
    hb::ScaleCluster with_sink{cluster_config(small, cluster_seed)};
    with_sink.add_sink(&null_sink);
    hb::ScaleCluster* pair[2] = {&plain, &with_sink};
    sim::Time horizon = 1 + 2 * kTmax;
    for (hb::ScaleCluster* cluster : pair) {
      cluster->start();
      cluster->run_until(horizon);
    }
    const std::uint64_t events_before = null_sink.events;
    const int chunks = options.smoke ? 4 : 40;
    std::vector<double> chunk_s[2];
    for (int c = 0; c < chunks; ++c) {
      horizon += 5 * kTmax;
      for (int k = 0; k < 2; ++k) {
        const auto start = Clock::now();
        pair[k]->run_until(horizon);
        chunk_s[k].push_back(seconds_since(start));
      }
    }
    const double events_per_chunk =
        static_cast<double>(null_sink.events - events_before) / chunks;
    report.layer("rv.chain_ns_per_event",
                 (median(chunk_s[1]) - median(chunk_s[0])) * 1e9 /
                     std::max(events_per_chunk, 1.0),
                 "ns", "job_s");
  }

  // Each hand-written monitor alone, replayed on a recorded stream.
  {
    const Recording rec = record(small, 20, cluster_seed);
    const char* metrics[] = {"rv.requirement_ns_per_event",
                             "rv.suspicion_ns_per_event",
                             "rv.availability_ns_per_event"};
    for (std::size_t which = 0; which < 3; ++which) {
      std::unique_ptr<Handwritten> stack;
      const ReplayCost cost = timed_replay(rec, [&] {
        stack = std::make_unique<Handwritten>(small);
        return std::vector<rv::EventSink*>{stack->sinks()[which]};
      });
      report.layer(metrics[which],
                   cost.delivered > 0 ? cost.seconds * 1e9 / cost.delivered : 0,
                   "ns", "job_s");
    }
    const Steady& monitored = *clusters[1];
    report.layer("rv.events_per_beat",
                 static_cast<double>(monitored.handwritten->events_seen()) /
                     static_cast<double>(monitored.cluster->stats().beats),
                 "count", "job_s");
  }

  // FormulaMonitor against the hand-written stack, per beat, replayed
  // on the same recorded stream of ~2000 beats at each size.
  Tracer untraced{false};
  for (const int n : {10, 100, 1000}) {
    const Recording rec = record(n, std::max(1, 2000 / n), cluster_seed);
    std::vector<std::unique_ptr<rv::pltl::FormulaMonitor>> formulas;
    const ReplayCost formula = timed_replay(rec, [&] {
      formulas = compile_formulas(n, untraced);
      std::vector<rv::EventSink*> sinks;
      for (auto& f : formulas) sinks.push_back(f.get());
      return sinks;
    });
    std::unique_ptr<Handwritten> stack;
    const ReplayCost handwritten = timed_replay(rec, [&] {
      stack = std::make_unique<Handwritten>(n);
      return stack->sinks();
    });
    const std::string suffix = "_n" + std::to_string(n);
    const double beats = static_cast<double>(rec.beats);
    report.layer("rv.formula_ns_per_beat" + suffix,
                 formula.seconds * 1e9 / beats, "ns", "job_s");
    report.layer("rv.handwritten_ns_per_beat" + suffix,
                 handwritten.seconds * 1e9 / beats, "ns", "job_s");
    if (n == 1000) {
      double instrs = 0;
      for (const auto& f : formulas) instrs += static_cast<double>(f->size());
      report.layer("rv.formula_instrs_n1000", instrs, "count", "job_s");
    }
  }
}

}  // namespace ahb::e2e
