// Participant (process p[i], i > 0) of the accelerated heartbeat
// protocols: echoes the coordinator's beats, inactivates itself when
// beats stop arriving, and — depending on the variant — joins by beating
// every tmin until acknowledged, or leaves gracefully with a false-flag
// beat. Each transition is a step of hb/transitions.hpp; this class
// turns the step's outcome into Actions.
#pragma once

#include "hb/transitions.hpp"
#include "hb/types.hpp"

namespace ahb::hb {

class Participant {
 public:
  /// Participant p[`id`]: a member a priori in the binary/static
  /// variants, joining by beating in the expanding/dynamic ones.
  Participant(const Config& config, int id);

  /// Must be called once; arms the inactivation deadline and, for the
  /// expanding/dynamic variants, schedules the first join beat one join
  /// period after start-up (matching the verified model).
  Actions start(Time now);

  /// Host callback when now >= next_event_time().
  Actions on_elapsed(Time now);

  /// Host callback for every received message (coordinator beats).
  Actions on_message(Time now, const Message& message);

  /// Host-injected voluntary crash.
  void crash(Time now);

  /// Fail-safe stop on detected local-clock corruption: the process
  /// must never act on invalid time arithmetic, so it forces its own
  /// non-voluntary inactivation instead (`now` is the last trusted
  /// local time). Idempotent; a no-op unless Active.
  Actions fence(Time now);

  /// Dynamic variant: leave gracefully at the next beat (the departure
  /// is announced as the reply to the coordinator's next heartbeat).
  void request_leave();

  /// Dynamic variant extension (future work in the source analysis): a
  /// departed participant re-enters the join phase. Only valid while
  /// status() == Status::Left and strictly more than tmin after the
  /// leave was sent (so the leave beat has drained from the network —
  /// rejoining earlier risks the stale leave cancelling the new
  /// registration). Re-enters the join phase; the new incarnation's
  /// first join beat follows one join period later.
  Actions rejoin(Time now);

  Status status() const { return state_.status; }
  Time next_event_time() const { return step::next_event(state_); }
  Time inactivated_at() const { return state_.inactivated_at; }
  /// When the leave beat was sent (kNever unless status() == Left).
  Time left_at() const { return state_.left_at; }
  bool joined() const { return state_.joined; }
  int id() const { return id_; }
  const Config& config() const { return config_; }

 private:
  /// The Actions of a step's outcome.
  Actions act(step::ParticipantAct outcome) const;

  Config config_;
  int id_;
  ParticipantState state_;
  bool started_ = false;
};

}  // namespace ahb::hb
