// SuspicionMonitor: online checks of the failure-detector suspicion
// ladder (hb/failure_detector.hpp) against the coordinator's round
// discipline, stated as three obligations over the protocol-event
// stream:
//
//   S1  pacing / earliest detection — while the coordinator is active,
//       consecutive round closes are at least tmin apart, so a member's
//       suspicion level k (k consecutive missed rounds) cannot be
//       reached earlier than suspicion_earliest_slack(k) = k * tmin
//       after its last registered beat. A faster escalation means the
//       rounds themselves ran too fast (a drifting coordinator clock).
//   S2  mandatory suspicion — once a member stops beating (crash,
//       leave, NV-inactivation) at S, the coordinator must either reach
//       the suspicion threshold for it or stop itself by S +
//       suspicion_detection_bound(threshold). The obligation is armed
//       at the stop (or at the first post-stop registration of a
//       joiner) and is deliberately *not* refreshed by later beat
//       deliveries: in-spec, everything the stopped member had in
//       flight drains within tmin, which the bound already budgets —
//       and refreshing would let fabricated beats defer detection
//       forever.
//   S3  monotone escalation — an external detector's published level
//       (note_level) may only decrease after a fresh registered beat.
//
// The monitor mirrors the coordinator-side membership exactly as
// RequirementMonitor does: a-priori members for non-join variants
// (first round granted, like the engines), registration on delivered
// beats, deregistration on delivered leaves. Suspicion violations carry
// requirement number 4, so campaign tooling that filters R1–R3 by
// number keeps working unchanged.
#pragma once

#include <vector>

#include "rv/monitor.hpp"

namespace ahb::rv {

class SuspicionMonitor final : public EventSink {
 public:
  struct Config {
    proto::Variant variant = proto::Variant::Binary;
    proto::Timing timing;
    int participants = 1;
    /// Level at which a member counts as suspected (the
    /// FailureDetector's suspect_after_misses).
    int suspect_after_misses = 2;
  };

  /// Uses bounds.suspicion_min_round for S1 and bounds.suspicion_slack
  /// for S2; either being zero disables that check (hand-built bounds
  /// predating the suspicion laws stay safe).
  SuspicionMonitor(const Config& config, const MonitorBounds& bounds);

  void attach(hb::ScaleCluster& cluster);

  std::uint32_t protocol_interest() const override;
  void on_protocol_event(const hb::ProtocolEvent& event) override;
  void finish(Time horizon) override;

  /// Cross-check hook for an external hb::FailureDetector: report the
  /// level it currently publishes for `node`. Monotone-escalation
  /// violations (a level drop without an intervening registered beat)
  /// are recorded like any other.
  void note_level(int node, int level, Time at);

  /// The ladder level the monitor itself derives for `node`.
  int level(int node) const;

  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t events_seen() const { return events_seen_; }

 private:
  void close_round(Time now);
  void arm_obligation(int node, Time at);
  void check_obligations(Time now);
  void discharge(int node);

  Config config_;
  MonitorBounds bounds_;
  bool coordinator_live_ = true;
  Time last_close_;               ///< previous CoordinatorBeat; kNever = none
  std::vector<int> level_;        ///< consecutive missed rounds per member
  std::vector<char> member_;      ///< mirrors the coordinator's joined set
  std::vector<char> rcvd_;        ///< beat registered in the current round
  std::vector<char> stopped_;     ///< the participant stopped beating
  std::vector<Time> last_beat_;   ///< last registered beat (S1 anchor)
  std::vector<Time> deadline_;    ///< S2 obligation; kNever = none
  std::vector<int> noted_level_;  ///< last externally reported level
  std::vector<char> beat_since_note_;
  std::vector<char> s1_fired_;    ///< one-shot per node ([0] = pacing)
  Time earliest_deadline_;        ///< watermark, as in RequirementMonitor
  std::uint64_t events_seen_ = 0;
  std::vector<Violation> violations_;
};

}  // namespace ahb::rv
