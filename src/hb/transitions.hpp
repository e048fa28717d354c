// The heartbeat transitions, each stated once: the state of the
// coordinator machine p[0] and of a participant machine p[i] as plain
// structs, and every transition as an inline step function over them.
// Both hosts call these steps — the sans-I/O hb::Coordinator and
// hb::Participant classes, and the engine hb::ScaleCluster. A step
// returns what the host must do (send, broadcast, report an
// inactivation); the host does the I/O. The timing laws come from
// proto/timing.hpp. Times are on the process's own clock; before its
// start step every deadline is kNever, so no timer of it is due.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "hb/types.hpp"
#include "util/contracts.hpp"
#include "util/dense_bitset.hpp"

namespace ahb::hb {

/// Protocol state of one participant p[i].
struct ParticipantState {
  /// Members a priori in binary/static; joining by beating otherwise.
  explicit ParticipantState(Variant variant)
      : joined(!variant_joins(variant)) {}

  Status status = Status::Active;
  bool joined;
  bool leave_requested = false;
  Time deadline = kNever;   ///< absolute inactivation deadline
  Time next_join = kNever;  ///< next join beat while joining
  Time inactivated_at = kNever;
  Time left_at = kNever;  ///< when the leave beat was sent
};

/// Protocol state of the coordinator p[0] over participants 1..n: its
/// round and the member table, indexed by participant id (slot 0 unused)
/// with word-packed bitsets, so a round boundary is a word scan.
struct CoordinatorState {
  CoordinatorState(const Config& config, int participants)
      : t(config.tmax),
        joined(static_cast<std::size_t>(participants) + 1),
        rcvd(joined.size()),
        registered(joined.size()),
        tm(joined.size(), 0) {
    AHB_EXPECTS(participants >= 1);
    // A-priori membership (binary/static family): every participant
    // starts registered, joined and with a granted first round (the
    // rcvd-initially-true initialisation of the protocol).
    if (variant_joins(config.variant)) return;
    for (std::size_t i = 1; i < tm.size(); ++i) {
      joined.set(i);
      rcvd.set(i);
      registered.set(i);
      tm[i] = config.tmax;
    }
  }

  int participants() const { return static_cast<int>(tm.size()) - 1; }
  bool is_member(int id) const {
    return id >= 1 && id <= participants() &&
           joined.test(static_cast<std::size_t>(id));
  }

  Status status = Status::Active;
  Time t;  ///< current round length
  Time round_deadline = kNever;
  Time inactivated_at = kNever;
  DenseBitset joined;      ///< registered and currently joined
  DenseBitset rcvd;        ///< beat received in the current round
  DenseBitset registered;  ///< ever registered
  std::vector<Time> tm;    ///< per-member waiting-time ladder
};

namespace step {

/// What a participant step asks its host to do.
enum class ParticipantAct : std::uint8_t {
  None,
  Reply,        ///< send a true-flag beat to p[0] (the echo)
  Leave,        ///< send a false-flag beat to p[0]; the participant left
  JoinBeat,     ///< send a true-flag join beat to p[0]
  Inactivated,  ///< the participant non-voluntarily inactivated
};

/// What a coordinator step asks its host to do.
enum class CoordinatorAct : std::uint8_t {
  None,
  AckLeave,     ///< send a false-flag beat to the departing sender
  Broadcast,    ///< send a true-flag beat to every joined member
  Inactivated,  ///< the coordinator non-voluntarily inactivated
};

/// Host-injected voluntary crash, for either role. True iff the process
/// was active.
template <typename State>
bool crash(State& s) {
  if (s.status != Status::Active) return false;
  s.status = Status::CrashedVoluntarily;
  return true;
}

/// Non-voluntary inactivation at `now`, for either role: the protocol's
/// timeout, or the fail-safe stop on a corrupted local clock. True iff
/// the process was active.
template <typename State>
bool fence(State& s, Time now) {
  if (s.status != Status::Active) return false;
  s.status = Status::InactiveNonVoluntarily;
  s.inactivated_at = now;
  return true;
}

/// Join phase: beat every join period (tmin) until the coordinator's
/// heartbeat confirms the join. The first join beat goes out one period
/// after entry, matching the verified model (Fig. 6).
inline void enter_join_phase(ParticipantState& p, Time now,
                             const Config& config) {
  p.deadline = now + config.join_deadline();
  p.next_join = now + proto::join_beat_period(config.timing());
}

/// Start-up: arm the inactivation deadline, or enter the join phase.
inline void start(ParticipantState& p, Time now, const Config& config) {
  if (p.joined) {
    p.deadline = now + config.participant_deadline();
  } else {
    enter_join_phase(p, now, config);
  }
}

/// A delivered message. Only the coordinator's true-flag beats act (a
/// leave acknowledgement is ignored): the beat confirms a join, then is
/// echoed — or, when a leave was requested, answered with the leave.
inline ParticipantAct on_message(ParticipantState& p, Time now,
                                 const Message& message,
                                 const Config& config) {
  if (p.status != Status::Active || message.sender != 0 || !message.flag) {
    return ParticipantAct::None;
  }
  if (!p.joined) {
    p.joined = true;
    p.next_join = kNever;
  }
  if (p.leave_requested && proto::variant_leaves(config.variant)) {
    p.status = Status::Left;
    p.left_at = now;
    return ParticipantAct::Leave;
  }
  p.deadline = now + config.participant_deadline();
  return ParticipantAct::Reply;
}

/// The participant's timer: inactivate at the deadline, else send the
/// next join beat when one is due.
inline ParticipantAct on_elapsed(ParticipantState& p, Time now,
                                 const Config& config) {
  if (p.status != Status::Active) return ParticipantAct::None;
  if (now >= p.deadline) {
    fence(p, now);
    return ParticipantAct::Inactivated;
  }
  if (!p.joined && now >= p.next_join) {
    p.next_join = now + proto::join_beat_period(config.timing());
    return ParticipantAct::JoinBeat;
  }
  return ParticipantAct::None;
}

/// Dynamic variant extension: a departed participant re-enters the join
/// phase. Refused (false) unless it has left and its leave beat has
/// drained, or a stale leave could de-register the new incarnation (the
/// reincarnation hazard, confirmed by model checking).
inline bool rejoin(ParticipantState& p, Time now, const Config& config) {
  if (p.status != Status::Left ||
      now < proto::earliest_rejoin(p.left_at, config.timing())) {
    return false;
  }
  p.status = Status::Active;
  p.joined = false;
  p.leave_requested = false;
  enter_join_phase(p, now, config);
  return true;
}

inline Time next_event(const ParticipantState& p) {
  return p.status == Status::Active ? std::min(p.deadline, p.next_join)
                                    : kNever;
}

/// Calls f(id) for every joined member in ascending id order: one walk
/// over the set bits of the joined words.
template <typename F>
void for_each_member(const CoordinatorState& c, F&& f) {
  for (std::size_t wi = 0; wi < c.joined.word_count(); ++wi) {
    for (std::uint64_t w = c.joined.word(wi); w != 0; w &= w - 1) {
      f(static_cast<int>((wi << 6) +
                         static_cast<std::size_t>(std::countr_zero(w))));
    }
  }
}

/// Start-up: arm the first round. The revised binary variant beats at
/// once (Broadcast), so no member's first round is granted any more.
inline CoordinatorAct start(CoordinatorState& c, Time now,
                            const Config& config) {
  c.round_deadline = now + config.tmax;
  if (!proto::rules_for(config.variant).initial_beat) {
    return CoordinatorAct::None;
  }
  c.rcvd.clear_all();
  return CoordinatorAct::Broadcast;
}

/// A delivered message. A true flag registers and joins its sender and
/// counts as its beat of this round; a false flag (dynamic variant)
/// de-registers a registered sender, acknowledged with AckLeave. A
/// sender outside 1..n is dropped.
inline CoordinatorAct on_message(CoordinatorState& c, const Message& message,
                                 const Config& config) {
  if (c.status != Status::Active || message.sender < 1 ||
      message.sender > c.participants()) {
    return CoordinatorAct::None;
  }
  const auto i = static_cast<std::size_t>(message.sender);
  if (message.flag) {
    c.registered.set(i);
    if (!c.joined.test(i)) {
      c.joined.set(i);
      c.tm[i] = config.tmax;
    }
    c.rcvd.set(i);
    return CoordinatorAct::None;
  }
  if (!proto::variant_leaves(config.variant) || !c.registered.test(i)) {
    return CoordinatorAct::None;
  }
  c.joined.reset(i);
  c.rcvd.reset(i);
  return CoordinatorAct::AckLeave;
}

/// The round timer (stale before the deadline): steps every joined
/// member down its waiting-time ladder (reset on a received beat,
/// accelerate on a miss). A minimum below tmin inactivates; otherwise
/// the next round lasts the minimum and the host broadcasts.
inline CoordinatorAct close_round(CoordinatorState& c, Time now,
                                  const Config& config) {
  if (c.status != Status::Active || now < c.round_deadline) {
    return CoordinatorAct::None;
  }
  const proto::Timing timing = config.timing();
  Time min_t = config.tmax;
  for_each_member(c, [&](int id) {
    const auto i = static_cast<std::size_t>(id);
    c.tm[i] = proto::next_wait(c.rcvd.test(i), c.tm[i], timing,
                               config.variant);
    min_t = std::min(min_t, c.tm[i]);
  });
  c.rcvd.clear_all();  // batched: one word pass instead of n writes

  if (proto::wait_inactivates(min_t, timing)) {
    fence(c, now);
    return CoordinatorAct::Inactivated;
  }
  c.t = min_t;
  c.round_deadline = now + c.t;
  return CoordinatorAct::Broadcast;
}

inline Time next_event(const CoordinatorState& c) {
  return c.status == Status::Active ? c.round_deadline : kNever;
}

}  // namespace step
}  // namespace ahb::hb
