#include "rv/suspicion.hpp"

#include <cinttypes>
#include <cstdio>

#include "hb/cluster_scale.hpp"
#include "hb/types.hpp"
#include "util/contracts.hpp"

namespace ahb::rv {

SuspicionMonitor::SuspicionMonitor(const Config& config,
                                   const MonitorBounds& bounds)
    : config_(config),
      bounds_(bounds),
      last_close_(hb::kNever),
      earliest_deadline_(hb::kNever) {
  AHB_EXPECTS(config.participants >= 1);
  AHB_EXPECTS(config.timing.valid());
  AHB_EXPECTS(config.suspect_after_misses >= 1);
  const auto slots = static_cast<std::size_t>(config.participants) + 1;
  level_.assign(slots, 0);
  member_.assign(slots, 0);
  rcvd_.assign(slots, 0);
  stopped_.assign(slots, 0);
  last_beat_.assign(slots, 0);
  deadline_.assign(slots, hb::kNever);
  noted_level_.assign(slots, 0);
  beat_since_note_.assign(slots, 0);
  s1_fired_.assign(slots, 0);
  // Non-join variants start every participant as a member with the
  // first round granted, exactly like the engines' coordinator — so
  // the initial beat of a revised-binary run counts no misses.
  if (!proto::variant_joins(config.variant)) {
    for (std::size_t i = 1; i < slots; ++i) {
      member_[i] = 1;
      rcvd_[i] = 1;
    }
  }
}

void SuspicionMonitor::attach(hb::ScaleCluster& cluster) {
  cluster.add_sink(this);
}

std::uint32_t SuspicionMonitor::protocol_interest() const {
  using Kind = hb::ProtocolEvent::Kind;
  return protocol_bit(Kind::CoordinatorBeat) |
         protocol_bit(Kind::CoordinatorReceivedBeat) |
         protocol_bit(Kind::CoordinatorReceivedLeave) |
         protocol_bit(Kind::CoordinatorInactivated) |
         protocol_bit(Kind::CoordinatorCrashed) |
         protocol_bit(Kind::ParticipantInactivated) |
         protocol_bit(Kind::ParticipantCrashed) |
         protocol_bit(Kind::ParticipantLeft) |
         protocol_bit(Kind::ParticipantRejoined);
}

int SuspicionMonitor::level(int node) const {
  AHB_EXPECTS(node >= 1 && node <= config_.participants);
  return level_[static_cast<std::size_t>(node)];
}

void SuspicionMonitor::on_protocol_event(const hb::ProtocolEvent& event) {
  ++events_seen_;
  check_obligations(event.at);

  const Time at = event.at;
  const auto idx = static_cast<std::size_t>(event.node);
  using Kind = hb::ProtocolEvent::Kind;
  switch (event.kind) {
    case Kind::CoordinatorBeat:
      close_round(at);
      break;
    case Kind::CoordinatorReceivedBeat:
      member_[idx] = 1;
      rcvd_[idx] = 1;
      last_beat_[idx] = at;
      beat_since_note_[idx] = 1;
      // A stale join beat can register a member that already stopped;
      // from that instant the ladder tracks it, so mandatory suspicion
      // applies from here (the stop itself predates membership).
      if (stopped_[idx]) arm_obligation(event.node, at);
      break;
    case Kind::CoordinatorReceivedLeave:
      if (member_[idx]) {
        member_[idx] = 0;
        rcvd_[idx] = 0;
        level_[idx] = 0;
      }
      discharge(event.node);
      break;
    case Kind::CoordinatorInactivated:
    case Kind::CoordinatorCrashed:
      // A stopped coordinator owes no further detection: every pending
      // obligation is discharged (the check above already fired any
      // deadline that had genuinely passed).
      coordinator_live_ = false;
      for (int i = 1; i <= config_.participants; ++i) {
        deadline_[static_cast<std::size_t>(i)] = hb::kNever;
      }
      earliest_deadline_ = hb::kNever;
      break;
    case Kind::ParticipantInactivated:
    case Kind::ParticipantCrashed:
    case Kind::ParticipantLeft:
      stopped_[idx] = 1;
      if (member_[idx]) arm_obligation(event.node, at);
      break;
    case Kind::ParticipantRejoined:
      stopped_[idx] = 0;
      discharge(event.node);
      break;
    default:
      break;
  }
}

void SuspicionMonitor::close_round(Time now) {
  // S1, round pacing: an active coordinator never arms a round shorter
  // than tmin, so two closes less than tmin apart are impossible
  // in-spec (the drift negative control).
  if (bounds_.suspicion_min_round > 0 && last_close_ != hb::kNever &&
      !s1_fired_[0] && now - last_close_ < bounds_.suspicion_min_round) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "rounds closed %" PRId64 " apart, below the tmin pacing "
                  "bound %" PRId64,
                  now - last_close_, bounds_.suspicion_min_round);
    violations_.push_back(Violation{4, 0, now, now, buf});
    s1_fired_[0] = 1;
  }
  last_close_ = now;

  for (int i = 1; i <= config_.participants; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (!member_[idx]) continue;
    if (rcvd_[idx]) {
      level_[idx] = 0;
      rcvd_[idx] = 0;
      continue;
    }
    ++level_[idx];
    // S1, earliest detection: level k is k consecutive missed rounds,
    // each at least tmin long, anchored at the last registered beat.
    if (bounds_.suspicion_min_round > 0 && !s1_fired_[idx] &&
        now < last_beat_[idx] +
                  static_cast<Time>(level_[idx]) *
                      bounds_.suspicion_min_round) {
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "participant %d reached suspicion level %d before the "
                    "earliest-detection slack",
                    i, level_[idx]);
      violations_.push_back(Violation{4, i, now, now, buf});
      s1_fired_[idx] = 1;
    }
    if (level_[idx] >= config_.suspect_after_misses) discharge(i);
  }
}

void SuspicionMonitor::arm_obligation(int node, Time at) {
  const auto idx = static_cast<std::size_t>(node);
  if (bounds_.suspicion_slack <= 0) return;
  if (!coordinator_live_) return;
  if (deadline_[idx] != hb::kNever) return;
  if (level_[idx] >= config_.suspect_after_misses) return;
  deadline_[idx] = at + bounds_.suspicion_slack;
  if (deadline_[idx] < earliest_deadline_) earliest_deadline_ = deadline_[idx];
}

void SuspicionMonitor::discharge(int node) {
  deadline_[static_cast<std::size_t>(node)] = hb::kNever;
}

void SuspicionMonitor::check_obligations(Time now) {
  if (now <= earliest_deadline_) return;
  Time earliest = hb::kNever;
  for (int i = 1; i <= config_.participants; ++i) {
    Time& deadline = deadline_[static_cast<std::size_t>(i)];
    if (deadline == hb::kNever) continue;
    if (now > deadline) {
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "coordinator never reached suspicion threshold %d for "
                    "silent participant %d (level %d)",
                    config_.suspect_after_misses, i,
                    level_[static_cast<std::size_t>(i)]);
      violations_.push_back(Violation{4, i, now, deadline, buf});
      deadline = hb::kNever;
    } else if (deadline < earliest) {
      earliest = deadline;
    }
  }
  earliest_deadline_ = earliest;
}

void SuspicionMonitor::note_level(int node, int level, Time at) {
  AHB_EXPECTS(node >= 1 && node <= config_.participants);
  const auto idx = static_cast<std::size_t>(node);
  if (level < noted_level_[idx]) {
    // S3: a published suspicion level may only drop after a fresh
    // registered beat (the one event that resets the ladder).
    if (!beat_since_note_[idx]) {
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "suspicion level for participant %d regressed %d -> %d "
                    "without a registered beat",
                    node, noted_level_[idx], level);
      violations_.push_back(Violation{4, node, at, at, buf});
    }
    beat_since_note_[idx] = 0;
  }
  noted_level_[idx] = level;
}

void SuspicionMonitor::finish(Time horizon) { check_obligations(horizon); }

}  // namespace ahb::rv
