// Common types of the accelerated heartbeat protocol library.
//
// The library is sans-I/O: Coordinator and Participant are reactive
// state machines driven by a host (the bundled simulator, or any real
// event loop) through on_message/on_elapsed calls; they emit messages
// and status changes as values instead of performing I/O.
//
// All protocol semantics — the variant taxonomy, the acceleration law,
// and every timeout bound — come from the shared kernel in `src/proto`,
// which the timed-automata models consume too.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "proto/rules.hpp"
#include "proto/timing.hpp"

namespace ahb::hb {

using Time = proto::Time;

/// Sentinel for "no pending event".
inline constexpr Time kNever = std::numeric_limits<Time>::max();

/// Protocol variants of Gouda & McGuire (ICDCS'98) plus the revised
/// binary start-up of McGuire & Gouda (2004). Shared with the
/// timed-automata layer (`models::Flavor` is the same type).
using Variant = proto::Variant;

using proto::to_string;
using proto::variant_joins;

struct Config {
  Time tmin = 1;   ///< minimum waiting time; also the round-trip delay bound
  Time tmax = 10;  ///< maximum waiting time
  Variant variant = Variant::Binary;
  /// Use the corrected inactivation bounds from the formal analysis
  /// (Section 6.2) instead of the published ones; see proto/timing.hpp
  /// for both formulas.
  bool fixed_bounds = false;

  constexpr proto::Timing timing() const { return proto::Timing{tmin, tmax}; }

  constexpr bool valid() const { return timing().valid(); }

  constexpr Time participant_deadline() const {
    return proto::participant_deadline(timing(), fixed_bounds);
  }
  constexpr Time join_deadline() const {
    return proto::join_deadline(timing(), fixed_bounds);
  }
  /// The bound within which p[0] is guaranteed to self-inactivate after
  /// its last received beat (the corrected R1 bound of the analysis).
  constexpr Time coordinator_detection_bound() const {
    return proto::coordinator_detection_bound(timing());
  }
};

/// Heartbeat wire format. `flag` matters only for the dynamic variant:
/// true means join/stay, false means leave (participant to coordinator)
/// or leave-acknowledgement (coordinator to participant).
struct Message {
  int sender = 0;  ///< 0 is the coordinator, participants are > 0
  bool flag = true;
};

struct Outbound {
  int to = 0;
  Message message;
};

/// Result of feeding an event into a protocol state machine.
struct Actions {
  std::vector<Outbound> messages;
  bool inactivated = false;  ///< the machine just became non-voluntarily inactive
  /// Coordinator only: this on_elapsed call closed a heartbeat round
  /// and the coordinator stayed active (it broadcast to the joined
  /// members — possibly none). A host counts rounds with it.
  bool round_completed = false;
};

/// One byte wide: the engine keeps one ParticipantState per node.
enum class Status : std::uint8_t {
  Active,
  Left,                    ///< departed gracefully (dynamic variant)
  CrashedVoluntarily,      ///< host-injected crash
  InactiveNonVoluntarily,  ///< protocol-decided inactivation
};

const char* to_string(Status s);

}  // namespace ahb::hb
