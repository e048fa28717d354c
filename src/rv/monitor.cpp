#include "rv/monitor.hpp"

#include <cinttypes>
#include <cstdio>
#include <limits>

#include "hb/cluster_scale.hpp"
#include "hb/types.hpp"
#include "util/contracts.hpp"

namespace ahb::rv {

namespace {

// Far enough in the past that `at - last_explanation_ > window` holds
// for every reachable time without overflowing the subtraction.
constexpr Time kLongAgo = std::numeric_limits<Time>::min() / 4;

std::string describe(const char* what, Time deadline) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s (deadline %" PRId64 ")", what, deadline);
  return buf;
}

}  // namespace

MonitorBounds MonitorBounds::defaults(const proto::Timing& timing,
                                      proto::Variant variant,
                                      bool fixed_bounds,
                                      int suspect_after_misses) {
  return MonitorBounds{
      proto::r1_detection_slack(timing, variant),
      proto::r2_explanation_window(timing, variant, fixed_bounds),
      proto::r3_detection_slack(timing, variant, fixed_bounds),
      timing.tmin,
      proto::suspicion_detection_bound(timing, suspect_after_misses),
  };
}

std::string Violation::key() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "R%d/node%d@%" PRId64, requirement, node,
                deadline);
  return buf;
}

RequirementMonitor::RequirementMonitor(const Config& config,
                                       const MonitorBounds& bounds)
    : config_(config),
      bounds_(bounds),
      coordinator_stopped_at_(hb::kNever),
      r1_deadline_(hb::kNever),
      last_explanation_(kLongAgo),
      earliest_deadline_(hb::kNever) {
  AHB_EXPECTS(config.participants >= 1);
  AHB_EXPECTS(config.timing.valid());
  const auto n = static_cast<std::size_t>(config.participants);
  stopped_at_.assign(n + 1, hb::kNever);  // index by node id, [0] unused
  r3_deadline_.assign(n + 1, hb::kNever);
  // Non-join variants register every participant a priori; join-phase
  // variants register on the first delivered join beat.
  registered_.assign(n + 1, !proto::variant_joins(config.variant));
  registered_[0] = false;
  live_count_ = config.participants;
  registered_count_ =
      proto::variant_joins(config.variant) ? 0 : config.participants;
}

void RequirementMonitor::attach(hb::ScaleCluster& cluster) {
  cluster.add_sink(this);
}

bool RequirementMonitor::coordinator_live() const {
  return coordinator_stopped_at_ == hb::kNever;
}

std::uint32_t RequirementMonitor::protocol_interest() const {
  // Steady-state traffic (beats, replies, join beats, deliveries to
  // participants) carries no R1–R3 information: obligations are armed
  // and discharged only by membership transitions and stops, so those
  // are the only kinds worth paying for at line rate. Filtering the hot
  // kinds can only delay the *detection* instant of a missed deadline
  // (the `at` of a violation), never its existence, deadline, node or
  // order — the key() identity shrinking relies on is unchanged.
  using Kind = hb::ProtocolEvent::Kind;
  return protocol_bit(Kind::CoordinatorReceivedBeat) |
         protocol_bit(Kind::CoordinatorReceivedLeave) |
         protocol_bit(Kind::CoordinatorInactivated) |
         protocol_bit(Kind::CoordinatorCrashed) |
         protocol_bit(Kind::ParticipantInactivated) |
         protocol_bit(Kind::ParticipantCrashed) |
         protocol_bit(Kind::ParticipantLeft) |
         protocol_bit(Kind::ParticipantRejoined);
}

std::uint32_t RequirementMonitor::channel_interest() const {
  return channel_bit(sim::ChannelEvent::Kind::Lost) |
         channel_bit(sim::ChannelEvent::Kind::Blocked) |
         channel_bit(sim::ChannelEvent::Kind::Rejected);
}

void RequirementMonitor::on_channel_event(const sim::ChannelEvent& event) {
  ++events_seen_;
  switch (event.kind) {
    case sim::ChannelEvent::Kind::Lost:
    case sim::ChannelEvent::Kind::Blocked:
    case sim::ChannelEvent::Kind::Rejected:
      // A message the channel destroyed can explain any inactivation
      // that follows within the window (R2's notion of "a fault
      // happened nearby"). A boundary rejection of a corrupted payload
      // is the same fault class: the message was destroyed in flight,
      // the receiver just proved it instead of the channel dropping it.
      check_deadlines(event.at);
      last_explanation_ = event.at;
      break;
    default:
      break;
  }
}

void RequirementMonitor::on_protocol_event(const hb::ProtocolEvent& event) {
  ++events_seen_;
  // Missed deadlines are detected by the first event after them, so the
  // check precedes the event's own effect: a discharge arriving *past*
  // its deadline is a (late-detection) violation, not a discharge.
  check_deadlines(event.at);

  const Time at = event.at;
  const int node = event.node;
  using Kind = hb::ProtocolEvent::Kind;
  switch (event.kind) {
    case Kind::CoordinatorReceivedBeat:
      if (!registered_[static_cast<std::size_t>(node)]) {
        registered_[static_cast<std::size_t>(node)] = true;
        ++registered_count_;
      }
      update_r1(at);
      break;
    case Kind::CoordinatorReceivedLeave:
      if (registered_[static_cast<std::size_t>(node)]) {
        registered_[static_cast<std::size_t>(node)] = false;
        --registered_count_;
      }
      update_r1(at);
      break;
    case Kind::CoordinatorInactivated:
      if (at - last_explanation_ > bounds_.r2_window) {
        violations_.push_back(Violation{
            2, 0, at, at,
            "coordinator NV-inactivated with no fault in the window"});
      }
      r1_deadline_ = hb::kNever;  // obligation discharged
      coordinator_stopped_at_ = at;
      for (int i = 1; i <= config_.participants; ++i) {
        if (stopped_at_[static_cast<std::size_t>(i)] == hb::kNever) {
          r3_deadline_[static_cast<std::size_t>(i)] = at + bounds_.r3_slack;
          arm(at + bounds_.r3_slack);
        }
      }
      last_explanation_ = at;
      break;
    case Kind::CoordinatorCrashed:
      r1_deadline_ = hb::kNever;  // a crashed node owes no detection
      coordinator_stopped_at_ = at;
      for (int i = 1; i <= config_.participants; ++i) {
        if (stopped_at_[static_cast<std::size_t>(i)] == hb::kNever) {
          r3_deadline_[static_cast<std::size_t>(i)] = at + bounds_.r3_slack;
          arm(at + bounds_.r3_slack);
        }
      }
      last_explanation_ = at;
      break;
    case Kind::ParticipantInactivated:
      if (at - last_explanation_ > bounds_.r2_window) {
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "participant %d NV-inactivated with no fault in the "
                      "window",
                      node);
        violations_.push_back(Violation{2, node, at, at, buf});
      }
      stop_participant(node, at);
      break;
    case Kind::ParticipantCrashed:
    case Kind::ParticipantLeft:
      stop_participant(node, at);
      break;
    case Kind::ParticipantRejoined:
      if (stopped_at_[static_cast<std::size_t>(node)] != hb::kNever) {
        stopped_at_[static_cast<std::size_t>(node)] = hb::kNever;
        ++live_count_;
      }
      // A reincarnation starts a fresh join phase; if the coordinator
      // is already gone it must give up within the join slack.
      if (coordinator_live()) {
        r3_deadline_[static_cast<std::size_t>(node)] = hb::kNever;
      } else {
        r3_deadline_[static_cast<std::size_t>(node)] = at + bounds_.r3_slack;
        arm(at + bounds_.r3_slack);
      }
      update_r1(at);
      break;
    default:
      break;
  }
}

void RequirementMonitor::stop_participant(int id, Time at) {
  if (stopped_at_[static_cast<std::size_t>(id)] == hb::kNever) {
    --live_count_;
  }
  stopped_at_[static_cast<std::size_t>(id)] = at;
  r3_deadline_[static_cast<std::size_t>(id)] = hb::kNever;
  last_explanation_ = at;
  update_r1(at);
}

void RequirementMonitor::update_r1(Time now) {
  // The obligation: the coordinator is live, at least one member is
  // still registered on its side, and every participant has stopped —
  // nobody is left to reply or join, so the acceleration ladder must
  // run dry within the slack. Any live participant (even an
  // unregistered joiner, whose next join beat would re-register it)
  // legitimately keeps the coordinator alive; a leave delivered after
  // the last stop can empty the registered set and void the obligation.
  const bool obliged =
      coordinator_live() && registered_count_ > 0 && live_count_ == 0;
  if (!obliged) {
    r1_deadline_ = hb::kNever;
  } else if (r1_deadline_ == hb::kNever && !r1_fired_) {
    r1_deadline_ = now + bounds_.r1_slack;
    arm(r1_deadline_);
  }
}

void RequirementMonitor::arm(Time deadline) {
  if (deadline < earliest_deadline_) earliest_deadline_ = deadline;
}

void RequirementMonitor::check_deadlines(Time now) {
  // The watermark is a lower bound on every armed deadline (discharges
  // leave it stale), so `now` at or below it proves nothing has fired.
  if (now <= earliest_deadline_) return;
  Time earliest = hb::kNever;
  if (r1_deadline_ != hb::kNever) {
    if (now > r1_deadline_) {
      violations_.push_back(Violation{
          1, 0, now, r1_deadline_,
          describe("coordinator failed to detect total silence",
                   r1_deadline_)});
      r1_deadline_ = hb::kNever;
      r1_fired_ = true;
    } else {
      earliest = r1_deadline_;
    }
  }
  for (int i = 1; i <= config_.participants; ++i) {
    Time& deadline = r3_deadline_[static_cast<std::size_t>(i)];
    if (deadline == hb::kNever) continue;
    if (now > deadline) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "participant %d failed to detect the coordinator stop", i);
      violations_.push_back(
          Violation{3, i, now, deadline, describe(buf, deadline)});
      deadline = hb::kNever;
    } else if (deadline < earliest) {
      earliest = deadline;
    }
  }
  earliest_deadline_ = earliest;
}

void RequirementMonitor::finish(Time horizon) {
  // The run ends at `horizon`: a deadline at or after it is
  // undetermined, one strictly before it was missed.
  check_deadlines(horizon);
}

}  // namespace ahb::rv
