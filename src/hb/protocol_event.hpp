// ProtocolEvent: one protocol-level event of a cluster execution, as
// observed at the simulator boundary. The stream of these events is a
// cluster's timed trace: the heartbeat engine (hb/cluster_scale.hpp)
// emits it, the conformance layer (proto/conformance.hpp) replays it
// through the timed-automata models, and the runtime-verification sinks
// (src/rv) check it online.
#pragma once

#include <cstdint>

#include "sim/link.hpp"

namespace ahb::hb {

struct ProtocolEvent {
  enum class Kind {
    CoordinatorBeat,          ///< p[0] beat its members (round or initial beat)
    CoordinatorReceivedBeat,  ///< a reply/join beat reached p[0] (node = sender)
    CoordinatorReceivedLeave, ///< a leave beat reached p[0] (node = sender)
    CoordinatorInactivated,   ///< p[0] NV-inactivated
    CoordinatorCrashed,       ///< injected p[0] crash took effect
    ParticipantReceivedBeat,  ///< p[0]'s beat reached p[node]
    ParticipantReplied,       ///< p[node] echoed a beat
    ParticipantJoinBeat,      ///< p[node] sent a join-phase beat
    ParticipantLeft,          ///< p[node] replied with a leave beat
    ParticipantInactivated,   ///< p[node] NV-inactivated
    ParticipantCrashed,       ///< injected p[node] crash took effect
    ParticipantRejoined,      ///< p[node] re-entered the join phase
  };
  /// One past the last enumerator — the width of a per-kind bitmask.
  static constexpr int kKindCount =
      static_cast<int>(Kind::ParticipantRejoined) + 1;

  Kind kind{};
  sim::Time at = 0;
  int node = 0;  ///< participant id; sender id for CoordinatorReceived*
  /// Network message id for send/delivery events (0 = not tied to one
  /// message). Sends and deliveries of the same message share the id,
  /// so the two become separately identifiable trace events. A
  /// CoordinatorBeat fans out as one message per member but is one
  /// protocol event; it carries the id of the first beat of the round
  /// (ids of the fan-out are consecutive).
  std::uint64_t msg_id = 0;
  /// Number of network messages the event fanned out as: the member
  /// count for a CoordinatorBeat (ids [msg_id, msg_id + fanout)), 1 for
  /// participant sends, 0 for events not tied to a send.
  std::uint32_t fanout = 0;
};

}  // namespace ahb::hb
