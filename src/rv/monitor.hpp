// Runtime requirement monitor: R1–R3 checked online over one execution.
//
// The model-checking layer proves R1–R3 over *all* executions of the
// timed-automata models; this monitor checks the *executable* hb
// engines against the same requirements on one live execution, fed by
// the protocol-event stream and the channel-event stream of either
// engine through the rv::EventSink interface. The deadlines come from
// the closed-form slack laws in proto/timing.hpp, which are sound for
// any fault sequence inside the channel/clock assumptions — so under
// in-spec faults every violation is a genuine protocol bug, while
// out-of-spec faults (delays breaking the tmin round trip, drifting
// clocks) are expected to trip the monitor and serve as its negative
// control.
//
// The three obligations, in monitor form:
//   R1  once every participant has stopped (crashed, left, or
//       inactivated) while the coordinator still has a registered
//       member, the coordinator must NV-inactivate within
//       r1_detection_slack.
//   R2  every NV-inactivation must be *explained* by a fault — a
//       channel loss/block, a crash, a leave, or an earlier
//       NV-inactivation — within the preceding r2_explanation_window;
//       an unexplained one is a premature detection.
//   R3  once the coordinator stops, every live participant must stop
//       within r3_detection_slack (re-anchored if it rejoins later).
//
// Line-rate discipline: steady-state traffic (beats, replies,
// deliveries) is filtered out by the interest mask — the monitor only
// subscribes to membership transitions, stops, and destroyed messages,
// all of which are rare. Armed deadlines are tracked through a
// conservative earliest-deadline watermark so the per-event check is
// one comparison; the O(participants) scan runs only when a deadline
// could actually have passed. No allocation happens after construction
// except to record a violation.
#pragma once

#include <string>
#include <vector>

#include "proto/rules.hpp"
#include "proto/timing.hpp"
#include "rv/event_sink.hpp"

namespace ahb::hb {
class ScaleCluster;
}  // namespace ahb::hb

namespace ahb::rv {

/// The monitor deadlines. Defaults come from proto/timing.hpp; tests
/// loosen individual bounds to prove the monitors actually bite (the
/// mutation canary: a loosened bound must silence the negative
/// control).
struct MonitorBounds {
  Time r1_slack = 0;
  Time r2_window = 0;
  Time r3_slack = 0;
  /// Suspicion-ladder bounds (rv::SuspicionMonitor; zero disables the
  /// corresponding check): minimum spacing of coordinator round closes,
  /// and the stop -> threshold-suspicion detection slack.
  Time suspicion_min_round = 0;
  Time suspicion_slack = 0;

  static MonitorBounds defaults(const proto::Timing& timing,
                                proto::Variant variant, bool fixed_bounds,
                                int suspect_after_misses = 2);
};

struct Violation {
  int requirement = 0;  ///< 1, 2, 3, or 4 (= suspicion ladder)
  int node = 0;         ///< 0 = coordinator
  Time at = 0;          ///< when the violation was established
  Time deadline = 0;    ///< the missed deadline (R1/R3) or the premature
                        ///< inactivation instant (R2)
  std::string detail;

  /// Stable identity for shrinking: two runs reproduce "the same"
  /// violation when requirement, node and deadline all match.
  std::string key() const;
};

class RequirementMonitor final : public EventSink {
 public:
  struct Config {
    proto::Variant variant = proto::Variant::Binary;
    proto::Timing timing;
    bool fixed_bounds = true;
    int participants = 1;
  };

  RequirementMonitor(const Config& config, const MonitorBounds& bounds);

  /// Convenience: registers this monitor as a sink of the cluster.
  void attach(hb::ScaleCluster& cluster);

  std::uint32_t protocol_interest() const override;
  std::uint32_t channel_interest() const override;
  void on_protocol_event(const hb::ProtocolEvent& event) override;
  void on_channel_event(const sim::ChannelEvent& event) override;

  /// Settles pending deadlines at the end of a run: obligations whose
  /// deadline lies strictly before `horizon` and were never discharged
  /// become violations; later deadlines are undetermined (campaigns
  /// leave a settle margin before the horizon so this stays empty).
  void finish(Time horizon) override;

  const std::vector<Violation>& violations() const { return violations_; }
  /// Events this sink was handed (protocol + channel) — the denominator
  /// of the benches' monitor_ns_per_event.
  std::uint64_t events_seen() const { return events_seen_; }

 private:
  void check_deadlines(Time now);
  void update_r1(Time now);
  bool coordinator_live() const;
  void stop_participant(int id, Time at);
  void arm(Time deadline);

  Config config_;
  MonitorBounds bounds_;
  Time coordinator_stopped_at_;
  std::vector<Time> stopped_at_;    ///< per participant; kNever = live
  std::vector<bool> registered_;    ///< coordinator-side membership estimate
  std::vector<Time> r3_deadline_;   ///< per participant; kNever = no obligation
  Time r1_deadline_;
  bool r1_fired_ = false;
  Time last_explanation_;
  /// Conservative lower bound on the earliest armed deadline: tightened
  /// on arm, left stale on discharge, recomputed by the scan — so
  /// `now <= earliest_deadline_` proves no deadline has passed.
  Time earliest_deadline_;
  int live_count_;        ///< participants not stopped
  int registered_count_;  ///< participants currently registered
  std::uint64_t events_seen_ = 0;
  std::vector<Violation> violations_;
};

}  // namespace ahb::rv
