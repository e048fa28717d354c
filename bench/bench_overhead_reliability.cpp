// Overhead/reliability trade-off (simulation): the core motivation of
// the ICDCS'98 paper. A plain heartbeat protocol must pick its period
// and miss-threshold up front:
//   - a slow period with a 1-miss threshold is cheap but a single lost
//     beat falsely deactivates the system;
//   - tolerating k losses multiplies the detection delay by k;
//   - recovering the detection delay back means beating k times faster,
//     multiplying the overhead by k.
// The accelerated protocol instead beats slowly (every tmax) while
// healthy and halves its period only on suspicion, so a false
// deactivation needs ~log2(tmax/tmin) *consecutive* bad rounds — at
// unchanged overhead and with detection still bounded by 3*tmax - tmin.
//
// For each loss probability we report, per protocol: message overhead
// (msgs per tmax time while healthy), the fraction of seeded runs that
// survive a long horizon without any false deactivation, and the
// detection delay after a real crash.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "hb/cluster_scale.hpp"
#include "hb/plain.hpp"
#include "sim/link.hpp"
#include "sim/timer_wheel.hpp"

namespace {

using namespace ahb;

constexpr hb::Time kTmin = 1;
constexpr hb::Time kTmax = 16;
constexpr sim::Time kHorizon = 40000;
/// One-way delay bound of the plain pair's link (delays in [0, 1]).
constexpr sim::Time kMaxDelay = 1;
constexpr int kRuns = 200;

struct Row {
  std::string name;
  std::string slug;           ///< JSON bench-line identifier
  double msgs_per_tmax = 0;   ///< overhead while healthy
  double survival = 0;        ///< fraction of runs with no false deactivation
  double detect_mean = 0;     ///< delay after an injected crash
  hb::Time detect_max = 0;
  sim::NetworkStats net;      ///< channel counters summed over every run
};

/// Plain fixed-period heartbeat pair: node 1 beats, node 0 detects.
struct PlainOutcome {
  bool falsely_suspected = false;
  hb::Time suspect_delay = 0;  ///< delay after the crash, if crashed
  std::uint64_t sent = 0;
  sim::NetworkStats net;
};

/// One event of the plain pair's loop. Deliveries and the crash are
/// posted at priority 0 (never cancelled), the two timers re-armed at
/// priority 1 by retime (their payloads never change), so a beat
/// arriving at a deadline is received before the timeout.
struct PlainEv {
  enum class Kind : std::uint8_t { SenderTimer, DetectorTimer, Deliver, Crash };
  Kind kind{};
  std::uint64_t id = 0;  ///< message id of a delivery
  hb::Message message;
};

PlainOutcome run_plain(hb::Time period, int k, double loss,
                       std::uint64_t seed, sim::Time crash_at) {
  using Wheel = sim::TimerWheel<PlainEv>;
  Wheel wheel;
  Rng rng{seed};
  sim::LinkFaults link{{.loss_probability = loss, .min_delay = 0,
                        .max_delay = kMaxDelay}};
  hb::PlainSender sender{1, period};
  hb::PlainDetector detector{period, k, kMaxDelay};
  PlainOutcome out;
  std::uint64_t next_id = 1;
  std::uint64_t newest_delivered = 0;

  const auto send = [&](const hb::Actions& actions) {
    for (const auto& m : actions.messages) {
      ++out.sent;
      const std::uint64_t id = next_id++;
      const sim::SendFate fate =
          sim::decide_send(rng, link, 1, 0, false, sizeof(hb::Message) * 8,
                           -1, out.net);
      // The link only loses and delays: no duplicates, no corruption.
      if (fate.outcome != sim::SendFate::Outcome::Deliver) continue;
      wheel.post(wheel.now() + fate.delay, 0,
                 PlainEv{PlainEv::Kind::Deliver, id, m.message});
    }
  };
  const auto arm_timer = [&](Wheel::Handle& timer, hb::Time when,
                             PlainEv::Kind kind) {
    if (when == hb::kNever) {
      wheel.cancel(timer);
    } else {
      timer = wheel.retime(timer, when, 1, PlainEv{kind});
    }
  };
  Wheel::Handle sender_timer;
  Wheel::Handle detector_timer;

  send(sender.start(0));
  detector.start(0);
  arm_timer(sender_timer, sender.next_event_time(),
            PlainEv::Kind::SenderTimer);
  arm_timer(detector_timer, detector.next_event_time(),
            PlainEv::Kind::DetectorTimer);
  if (crash_at >= 0) wheel.post(crash_at, 0, PlainEv{PlainEv::Kind::Crash});

  Wheel::Expired ev;
  while (wheel.pop(kHorizon, ev)) {
    switch (ev.payload.kind) {
      case PlainEv::Kind::SenderTimer:
        send(sender.on_elapsed(ev.when));
        arm_timer(sender_timer, sender.next_event_time(),
                  PlainEv::Kind::SenderTimer);
        break;
      case PlainEv::Kind::DetectorTimer:
        detector.on_elapsed(ev.when);
        arm_timer(detector_timer, detector.next_event_time(),
                  PlainEv::Kind::DetectorTimer);
        break;
      case PlainEv::Kind::Deliver:
        ++out.net.delivered;
        // A delivery older than the newest one delivered overtook it.
        if (ev.payload.id < newest_delivered) {
          ++out.net.reordered;
        } else {
          newest_delivered = ev.payload.id;
        }
        detector.on_message(ev.when, ev.payload.message);
        arm_timer(detector_timer, detector.next_event_time(),
                  PlainEv::Kind::DetectorTimer);
        break;
      case PlainEv::Kind::Crash:
        sender.crash(ev.when);
        break;
    }
  }

  if (detector.suspected()) {
    if (crash_at < 0 || detector.suspected_at() < crash_at) {
      out.falsely_suspected = true;
    } else {
      out.suspect_delay = detector.suspected_at() - crash_at;
    }
  }
  return out;
}

Row bench_plain(const char* name, const char* slug, hb::Time period, int k,
                double loss) {
  Row row;
  row.name = name;
  row.slug = slug;
  int survived = 0;
  double detect_total = 0;
  int detected = 0;
  std::uint64_t healthy_msgs = 0;
  for (int seed = 1; seed <= kRuns; ++seed) {
    // Survival run (no crash).
    const auto healthy = run_plain(period, k, loss,
                                   static_cast<std::uint64_t>(seed), -1);
    if (!healthy.falsely_suspected) ++survived;
    healthy_msgs += healthy.sent;
    row.net += healthy.net;
    // Detection run (crash mid-way), loss-free to isolate the delay.
    const auto crashed = run_plain(period, k, 0.0,
                                   static_cast<std::uint64_t>(seed),
                                   1000 + (seed * 13) % (3 * kTmax));
    row.net += crashed.net;
    if (crashed.suspect_delay > 0) {
      ++detected;
      detect_total += static_cast<double>(crashed.suspect_delay);
      row.detect_max = std::max(row.detect_max, crashed.suspect_delay);
    }
  }
  row.survival = static_cast<double>(survived) / kRuns;
  row.msgs_per_tmax = static_cast<double>(healthy_msgs) / kRuns /
                      (static_cast<double>(kHorizon) / kTmax);
  row.detect_mean = detected ? detect_total / detected : 0;
  return row;
}

Row bench_accelerated(const char* name, const char* slug, bool fixed_bounds,
                      double loss) {
  Row row;
  row.name = name;
  row.slug = slug;
  int survived = 0;
  double detect_total = 0;
  int detected = 0;
  std::uint64_t healthy_msgs = 0;
  for (int seed = 1; seed <= kRuns; ++seed) {
    {
      hb::ClusterConfig config;
      config.protocol.variant = hb::Variant::Binary;
      config.protocol.tmin = kTmin;
      config.protocol.tmax = kTmax;
      config.protocol.fixed_bounds = fixed_bounds;
      config.participants = 1;
      config.loss_probability = loss;
      config.seed = static_cast<std::uint64_t>(seed);
      hb::ScaleCluster cluster{config};
      cluster.start();
      cluster.run_until(kHorizon);
      const bool ok = cluster.coordinator_status() == hb::Status::Active &&
                      cluster.participant_status(1) == hb::Status::Active;
      if (ok) ++survived;
      // Every send is a coordinator or participant beat (the overhead).
      healthy_msgs += cluster.network_stats().sent;
      row.net += cluster.network_stats();
    }
    {
      hb::ClusterConfig config;
      config.protocol.variant = hb::Variant::Binary;
      config.protocol.tmin = kTmin;
      config.protocol.tmax = kTmax;
      config.protocol.fixed_bounds = fixed_bounds;
      config.participants = 1;
      config.seed = static_cast<std::uint64_t>(seed);
      hb::ScaleCluster cluster{config};
      const sim::Time crash_at = 1000 + (seed * 13) % (3 * kTmax);
      cluster.crash_participant_at(1, crash_at);
      cluster.start();
      cluster.run_until(kHorizon);
      const hb::Time at = cluster.coordinator_inactivated_at();
      if (at != hb::kNever && at > crash_at) {
        ++detected;
        const hb::Time delay = at - crash_at;
        detect_total += static_cast<double>(delay);
        row.detect_max = std::max(row.detect_max, delay);
      }
      row.net += cluster.network_stats();
    }
  }
  row.survival = static_cast<double>(survived) / kRuns;
  row.msgs_per_tmax = static_cast<double>(healthy_msgs) / kRuns /
                      (static_cast<double>(kHorizon) / kTmax);
  row.detect_mean = detected ? detect_total / detected : 0;
  return row;
}

void print_row(const Row& r) {
  std::printf("  %-34s %10.2f %9.1f%% %12.1f %9lld\n", r.name.c_str(),
              r.msgs_per_tmax, 100.0 * r.survival, r.detect_mean,
              static_cast<long long>(r.detect_max));
}

/// One JSON line per (protocol, loss) cell, with the channel counters
/// alongside the headline figures.
void emit_row(const Row& r, double loss) {
  std::printf(
      "{\"bench\": \"overhead_reliability/%s_loss%g\", "
      "\"msgs_per_tmax\": %.3f, \"survival\": %.3f, \"detect_mean\": %.1f, "
      "\"detect_max\": %lld, %s}\n",
      r.slug.c_str(), loss, r.msgs_per_tmax, r.survival, r.detect_mean,
      static_cast<long long>(r.detect_max),
      bench::network_stats_fields(r.net).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  if (args.json) {
    for (const double loss : {0.01, 0.02, 0.05, 0.10}) {
      emit_row(bench_accelerated("accelerated (paper bounds)", "accel_paper",
                                 false, loss),
               loss);
      emit_row(bench_accelerated("accelerated (fixed bounds)", "accel_fixed",
                                 true, loss),
               loss);
      emit_row(
          bench_plain("plain period=tmax, k=1", "plain_k1", kTmax, 1, loss),
          loss);
      emit_row(
          bench_plain("plain period=tmax, k=3", "plain_k3", kTmax, 3, loss),
          loss);
      emit_row(bench_plain("plain period=tmax/4, k=4", "plain_fast_k4",
                           kTmax / 4, 4, loss),
               loss);
    }
    return 0;
  }

  std::printf("== Overhead vs reliability vs detection delay ==\n");
  std::printf("(tmin=%lld, tmax=%lld, horizon=%lld, %d runs per cell;\n"
              " overhead = messages per tmax while healthy;\n"
              " survival = runs with no false deactivation)\n",
              static_cast<long long>(kTmin), static_cast<long long>(kTmax),
              static_cast<long long>(kHorizon), kRuns);

  for (const double loss : {0.01, 0.02, 0.05, 0.10}) {
    std::printf("\n-- loss probability %.0f%% --\n", loss * 100);
    std::printf("  %-34s %10s %10s %12s %9s\n", "protocol", "msgs/tmax",
                "survival", "detect-mean", "max");
    print_row(bench_accelerated("accelerated (paper bounds)", "accel_paper",
                                false, loss));
    print_row(bench_accelerated("accelerated (fixed bounds)", "accel_fixed",
                                true, loss));
    print_row(
        bench_plain("plain period=tmax, k=1", "plain_k1", kTmax, 1, loss));
    print_row(
        bench_plain("plain period=tmax, k=3", "plain_k3", kTmax, 3, loss));
    print_row(bench_plain("plain period=tmax/4, k=4", "plain_fast_k4",
                          kTmax / 4, 4, loss));
  }

  std::printf(
      "\nExpected shape (and what the 1998 design argues):\n"
      " * plain k=1 at the slow period is cheap but dies from any single\n"
      "   loss -> poor survival already at 1-2%% loss;\n"
      " * plain k=3 survives but detects ~3x slower;\n"
      " * plain at 4x rate recovers the delay at 4x the message cost;\n"
      " * the accelerated protocol keeps the slow-period overhead, the\n"
      "   bounded delay, and survives because a false deactivation needs\n"
      "   log2(tmax/tmin)+1 consecutive bad rounds;\n"
      " * the 'fixed bounds' row shows the price of the analysis's\n"
      "   tightened 2*tmax participant deadline: it is exact only under\n"
      "   the zero-loss premise of requirement R2 -- with any loss at\n"
      "   all, one dropped beat is fatal, because the replacement beat is\n"
      "   only *sent* at the instant the tightened deadline expires. In a\n"
      "   lossy deployment keep the published 3*tmax - tmin deadline,\n"
      "   which tolerates exactly one lost beat per window.\n");
  return 0;
}
