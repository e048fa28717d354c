// Coordinator (process p[0]) of the accelerated heartbeat protocols.
//
// Round structure (Section 2 of the protocol): wait t, beat every
// participant, and per participant set its waiting time back to tmax if
// its beat arrived during the round, otherwise accelerate (halve it, or
// drop to tmin in the two-phase variant). When the minimum waiting time
// falls below tmin the coordinator inactivates itself, guaranteeing
// network-wide deactivation after a crash. Each transition is a step of
// hb/transitions.hpp; this class turns the step's outcome into Actions.
#pragma once

#include "hb/transitions.hpp"
#include "hb/types.hpp"

namespace ahb::hb {

class Coordinator {
 public:
  /// Coordinator of participants 1..`participants` (binary: 1). In the
  /// binary/static variants they are all members a priori; in the
  /// expanding/dynamic variants they join by beating. A message from a
  /// sender outside 1..`participants` is dropped.
  Coordinator(const Config& config, int participants);

  /// Must be called once; returns the initial beat for the revised
  /// binary variant and arms the first round.
  Actions start(Time now);

  /// Host callback when now >= next_event_time().
  Actions on_elapsed(Time now);

  /// Host callback for every received message.
  Actions on_message(Time now, const Message& message);

  /// Host-injected voluntary crash.
  void crash(Time now);

  /// Fail-safe stop on detected local-clock corruption: the process
  /// must never act on invalid time arithmetic, so it forces its own
  /// non-voluntary inactivation instead (`now` is the last trusted
  /// local time). Idempotent; a no-op unless Active.
  Actions fence(Time now);

  Status status() const { return state_.status; }
  Time next_event_time() const { return step::next_event(state_); }
  /// Time of non-voluntary self-inactivation, or kNever.
  Time inactivated_at() const { return state_.inactivated_at; }

  Time current_wait() const { return state_.t; }
  bool is_member(int id) const { return state_.is_member(id); }
  std::vector<int> member_ids() const;
  /// Per-member waiting time tm[id]; tmax for unknown/departed members.
  /// Each halving below tmax corresponds to one missed round.
  Time member_wait(int id) const;
  const Config& config() const { return config_; }

 private:
  /// The Actions of a step's outcome; `sender` is the message's sender.
  Actions act(step::CoordinatorAct outcome, int sender = 0) const;

  Config config_;
  CoordinatorState state_;
  bool started_ = false;
};

}  // namespace ahb::hb
