// ScaleCluster: the heartbeat engine.
//
// Wires the coordinator and its participants onto a deterministic
// discrete-event loop and a lossy flat transport: configure timing,
// loss and seed, inject crashes, leaves, link and clock faults, run,
// and inspect statuses and inactivation times. It serves every host in
// the repository — the examples, the conformance replays, the chaos
// campaigns and long missions, and the 100k-node steady state.
//
// Mechanics. The protocol state is the coordinator's dense member table
// (joined/received/registered as word-packed bitsets plus the
// waiting-time ladder) and one flat vector of participant states indexed
// by node id. Every pending event — a delivery, a node's deadline, a
// scheduled fault — is one 40-byte entry on a hierarchical timer wheel
// (sim/timer_wheel.hpp): filing appends it to a chunked slot list and
// firing reads the due lists front to back. Deliveries, duplicates and
// scheduled faults are never cancelled, so they are posted without a
// handle and cost no per-id bookkeeping; only node deadlines hold
// handles. Re-arming one is an O(1) retime: a deadline that stays at its
// tick or moves later — a participant's on every beat it receives, the
// coordinator's on every reply — keeps its entry where it is and
// records the new deadline, so a node holds one entry, not one per
// beat. Beats run through an inlined flat transport with no per-message
// heap allocation: a round boundary is one pass over the member table
// that fans out every beat of the round, and an in-flight beat carries
// its wire image as one byte (pack_wire) that is rebuilt at delivery.
// The engine and the sans-I/O hb::Coordinator and hb::Participant
// classes (the library's per-process API) both call hb/transitions.hpp,
// where each transition is stated once; the engine adds only wire
// decoding, transport, clocks, timers and sinks.
//
// Determinism. Same-instant work fires in (time, priority,
// schedule-order) sequence — deliveries and injected faults at priority
// 0, deadline timers at priority 1 (0 when receive_priority is off) —
// and every send consumes the seeded RNG stream through
// sim::decide_send (sim/link.hpp), the one per-send fault decision. Two
// runs of the same configuration and fault schedule therefore produce
// the same event stream bit for bit; tests/hb_scale_golden_test.cpp
// pins those streams, and the conformance replayer checks them against
// the timed-automata models.
//
// Transport faults. ClusterConfig sets the default link (i.i.d. loss,
// delay range, corruption); links() adjusts the sparse per-link fault
// state immediately (overrides, Gilbert–Elliott bursts, duplication,
// link up/down) and change_link_at() patches one field of one link at
// a scheduled instant. The transport carries validated 8-byte wire
// images (hb/wire.hpp); receivers parse-or-drop them. Channel events
// (Sent, Lost, Blocked, Duplicated, Corrupted, Delivered, Rejected)
// are tapped inline and fanned out through the sink chain when some
// sink subscribes; Delivered events report delay 0 because the flat
// transport does not carry the sampled delay to the delivery.
//
// Clocks. A node runs on the global clock unless a drift or clock
// fault is scheduled on it; from then on the node carries a modular
// hardware clock (NodeClock below) that every transition reads: its
// engine deadlines live on that clock and its timers fire at the global
// instant whose image reaches them. Nodes without clock faults carry no
// clock state, so fault-free runs pay nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "hb/protocol_event.hpp"
#include "hb/transitions.hpp"
#include "hb/types.hpp"
#include "hb/wire.hpp"
#include "rv/sink_chain.hpp"
#include "sim/link.hpp"
#include "sim/timer_wheel.hpp"
#include "util/rng.hpp"

namespace ahb::hb {

struct ClusterConfig {
  Config protocol;
  int participants = 1;
  double loss_probability = 0.0;
  /// One-way delay range; defaults keep the round trip within tmin as
  /// the protocol assumes (set from `protocol.tmin` when max_delay < 0).
  sim::Time min_delay = 0;
  sim::Time max_delay = -1;
  std::uint64_t seed = 1;
  /// Process message deliveries before timer expirations at the same
  /// instant (the Section 6.1 correction). Without it, a beat arriving
  /// exactly at a deadline can lose the race against the timeout — the
  /// very anomaly (Figs. 11/12 of the analysis) the fix removes; it is
  /// essential when the tight `fixed_bounds` deadlines are used.
  bool receive_priority = true;
  /// Per-send payload bit-flip probability on every link (the chaos
  /// layer can also arm it per link via ScaleCluster::change_link_at).
  double corrupt_probability = 0.0;
  /// Receivers parse-or-drop the wire image (hb/wire.hpp). Disabling
  /// this is the mutation canary: corrupted payloads reach the engines.
  bool wire_validation = true;
  /// Half-range rule on node clock reads: an age >= 2^63 between two
  /// reads of the modular hardware clock is invalid and fences the node
  /// (fail-safe non-voluntary inactivation) instead of being acted on.
  /// Disabling it models the historical bug — raw ordered comparison of
  /// absolute register values, which a wrap or backward jump breaks.
  bool clock_guard = true;
};

/// Aggregate throughput counters of one ScaleCluster run.
struct ScaleStats {
  std::uint64_t rounds = 0;  ///< coordinator rounds closed (incl. empty ones)
  std::uint64_t beats = 0;   ///< coordinator -> member beat messages sent
  std::uint64_t replies = 0; ///< participant -> coordinator beats (echo/join/leave)
};

/// The flat transport carries a beat's 8-byte wire image as one byte
/// and rebuilds it at delivery: bit 7 is the flag and, when the image
/// was corrupted in flight, bit 6 is set and bits 0..5 name the flipped
/// bit. unpack_wire(sender, pack_wire(...)) is wire_encode followed by
/// sim::corrupt_bit, byte for byte.
inline std::uint8_t pack_wire(bool flag, bool corrupt, std::uint64_t bit) {
  static_assert(sizeof(WireMessage) * 8 <= 64);
  return static_cast<std::uint8_t>((flag ? 0x80 : 0) |
                                   (corrupt ? 0x40 | bit : 0));
}

inline WireMessage unpack_wire(int sender, std::uint8_t packed) {
  WireMessage wire = wire_encode(Message{sender, (packed & 0x80) != 0});
  if ((packed & 0x40) != 0) sim::corrupt_bit(wire, packed & 0x3f);
  return wire;
}

class ScaleCluster {
 public:
  explicit ScaleCluster(const ClusterConfig& config);

  /// Starts all processes at the current simulation time.
  void start();

  void run_until(sim::Time horizon);

  // Fault/behaviour injection, scheduled at absolute times (>= now).
  // Node 0 is the coordinator.
  void crash_coordinator_at(sim::Time when);
  void crash_participant_at(int id, sim::Time when);
  void leave_at(int id, sim::Time when);
  /// Dynamic variant: re-enter the join phase at `when` (no-op unless
  /// the participant has left by then, and dropped when it comes before
  /// the leave beat's delay bound has drained — chaos schedules hit
  /// that race by design).
  void rejoin_at(int id, sim::Time when);

  /// Clock drift: from `when` on, node `id`'s local clock advances
  /// `num/den` local time units per global (simulation) unit. The node
  /// sees local time in every transition and its timers fire at the
  /// global instant whose local image reaches the deadline — so a slow
  /// clock stretches real waiting times and a fast one shrinks them,
  /// exactly like a drifting hardware timer.
  void set_drift_at(int id, sim::Time when, std::int64_t num, std::int64_t den);

  /// Clock corruption: at `when`, node `id`'s hardware clock register
  /// jumps by `delta` ticks (negative = backwards). The node observes
  /// the jump immediately. Under the half-range rule a backward jump is
  /// an invalid age and fences the node; a forward jump is
  /// indistinguishable from elapsed time, so the node conservatively
  /// times out whatever deadlines the jump crossed.
  void corrupt_clock_at(int id, sim::Time when, std::int64_t delta);

  /// Clock wrap: at `when`, node `id`'s hardware clock register is
  /// repositioned `margin` ticks before the 2^64 wrap point, preserving
  /// all pending ages (only the absolute position moves). With the
  /// modular-time idiom (clock_guard on) the subsequent wrap is
  /// unobservable; with the guard off the raw comparison sees time leap
  /// backwards at the first clock read after the crossing.
  void wrap_clock_at(int id, sim::Time when, std::uint64_t margin);

  /// Transport fault: at `when`, applies `change` to the directed link
  /// from -> to (one parameter patched in place, or the link taken
  /// up/down). Same-instant changes apply in scheduling order.
  void change_link_at(sim::Time when, int from, int to,
                      const sim::LinkChange& change);

  /// The transport's link-fault state, for immediate changes between
  /// run_until calls (overrides, defaults, link up/down). Changes
  /// affect messages sent from then on, never in-flight ones.
  sim::LinkFaults& links() { return links_; }

  /// Registers a runtime-verification sink (not owned; must outlive the
  /// cluster). Install before start() to capture the complete trace.
  /// Event construction is gated on the chain's cached interest masks,
  /// so the 100k-node hot path never pays for observability nothing
  /// subscribed to. run_until does not call finish on the sinks — drive
  /// `sinks().finish(horizon)` when the run ends.
  void add_sink(rv::EventSink* sink) { sinks_.add(sink); }
  /// Deregisters a sink mid-run (between run_until calls), so it can be
  /// destroyed before the cluster without leaving a dangling pointer in
  /// the chain.
  void remove_sink(rv::EventSink* sink) { sinks_.remove(sink); }
  rv::SinkChain& sinks() { return sinks_; }

  const ClusterConfig& config() const { return config_; }
  int participant_count() const { return coord_.participants(); }
  sim::Time now() const { return wheel_.now(); }

  // Protocol state. Times a process recorded itself (inactivation,
  // leave) are on its own clock, which is the global clock unless a
  // drift or clock fault touched the node.
  Status coordinator_status() const { return coord_.status; }
  sim::Time coordinator_inactivated_at() const { return coord_.inactivated_at; }
  /// Current round length t of the coordinator.
  sim::Time coordinator_wait() const { return coord_.t; }
  /// Number of currently joined members.
  int member_count() const { return static_cast<int>(coord_.joined.count()); }
  bool is_member(int id) const;

  Status participant_status(int id) const { return participant(id).status; }
  sim::Time participant_inactivated_at(int id) const {
    return participant(id).inactivated_at;
  }
  bool participant_joined(int id) const { return participant(id).joined; }

  /// True iff every process has stopped participating (crashed, left,
  /// or inactivated).
  bool all_inactive() const;

  const sim::NetworkStats& network_stats() const { return net_stats_; }
  const ScaleStats& stats() const { return scale_stats_; }
  /// Events held by the wheel, cancelled timers not yet dropped included
  /// (sim::TimerWheel::stored). Deadlines re-armed later keep their one
  /// entry (TimerWheel::retime), so in steady state this is the pending
  /// events: one deadline per node plus the beats in flight.
  std::size_t stored_events() const { return wheel_.stored(); }

 private:
  /// Wheel payload: one pending simulation event, stored by value in
  /// the wheel's chunked slot lists (no per-message allocation). 20
  /// bytes, aligned to 4, so a wheel entry is 40.
  struct Ev {
    enum class Kind : std::uint8_t {
      Deliver,           ///< message delivery: from -> node
      NodeTimer,         ///< node's deadline timer (0 = coordinator)
      CrashCoordinator,
      CrashParticipant,
      Leave,
      Rejoin,
      Drift,             ///< node's clock rate := drift_rates_[value()]
      ClockOffset,       ///< node's register jumps by (int64)value()
      ClockWrap,         ///< node's register repositioned value() before 2^64
      LinkChange,        ///< link_changes_[value()] applies
    };
    Kind kind{};
    std::uint8_t wire = 0;  ///< Deliver: the image, packed (pack_wire)
    std::int32_t from = 0;
    std::int32_t node = 0;
    /// Deliver: the message id; otherwise the operand. Two halves keep
    /// the payload 4-aligned.
    std::uint32_t value_lo = 0;
    std::uint32_t value_hi = 0;

    static Ev of(Kind kind, int node, std::uint64_t value = 0) {
      return Ev{kind, 0, 0, node, static_cast<std::uint32_t>(value),
                static_cast<std::uint32_t>(value >> 32)};
    }
    std::uint64_t value() const {
      return value_lo | std::uint64_t{value_hi} << 32;
    }
  };
  using Wheel = sim::TimerWheel<Ev>;
  // A new Ev field must not grow every pending event silently.
  static_assert(Wheel::kEntryBytes <= 40);

  /// Node clock, pulse-style: the *hardware* register is a free-running
  /// modular uint64 advancing at rate num/den per global unit, and the
  /// *engine* clock the protocol transitions see is reconstructed from
  /// it one age at a time — age(a, b) = (a - b) mod 2^64, valid iff
  /// < 2^63 (the half-range rule). Ages telescope, so in normal
  /// operation the reconstruction is exactly the piecewise-affine local
  /// clock; the difference only shows when chaos jumps or wraps the
  /// register. `base_engine`/`base_global` anchor the affine segment
  /// timers are mapped through; they are rebased on rate changes, clock
  /// jumps, and raw-mode divergence so engine deadlines stay
  /// translatable. A new clock equals the global clock, read at its
  /// creation (when the first clock fault is scheduled on the node).
  struct NodeClock {
    std::int64_t num = 1;
    std::int64_t den = 1;
    sim::Time base_global = 0;
    std::uint64_t hw_base = 0;    ///< register value at base_global
    std::uint64_t hw_last = 0;    ///< register value at the last read
    sim::Time base_engine = 0;    ///< engine clock at base_global
    sim::Time engine_local = 0;   ///< reconstructed engine clock
    bool fault = false;           ///< latched half-range violation

    std::uint64_t hw(sim::Time global) const {
      return hw_base +
             static_cast<std::uint64_t>((global - base_global) * num / den);
    }
    /// Earliest global instant whose engine-clock image reaches
    /// `local_when` (clamped to kNever when the affine segment cannot
    /// reach it within the representable range).
    sim::Time global_for(sim::Time local_when) const {
      if (local_when == kNever) return kNever;
      const __int128 span =
          static_cast<__int128>(local_when) - base_engine;
      if (span <= 0) return base_global;
      const __int128 global = base_global + (span * den + num - 1) / num;
      return global >= kNever ? kNever : static_cast<sim::Time>(global);
    }
  };

  struct TimedLinkChange {
    int from;
    int to;
    sim::LinkChange change;
  };

  void handle(const Ev& ev);
  /// Participant p[id]'s state (id range-checked).
  const ParticipantState& participant(int id) const;
  void deliver_to_coordinator(int from, WireMessage wire, std::uint64_t id);
  void deliver_to_participant(int id, int from, WireMessage wire,
                              std::uint64_t msg_id);
  /// The deadline transitions of one node at its local time `local`.
  void node_elapsed(int node, sim::Time local);
  /// Sends a beat to every joined member as one broadcast event.
  void broadcast();
  /// Carries out participant `id`'s step outcome: its send and event.
  void participant_act(int id, step::ParticipantAct outcome);
  /// Parse-or-drop boundary validation of a delivered wire image.
  std::optional<Message> decode_wire(int from, const WireMessage& wire) const;
  /// Counts and reports a boundary rejection of message `id`.
  void reject(int from, int to, std::uint64_t id);
  void apply_drift(int node, std::int64_t num, std::int64_t den);
  void apply_clock_offset(int node, std::int64_t delta);
  void apply_clock_wrap(int node, std::uint64_t margin);
  /// Fail-safe reaction to an invalid clock age: fence the node.
  void fence_node(int node, sim::Time local);

  /// The clock of `node`, or null while it runs on the global clock.
  NodeClock* clock_of(int node);
  /// The clock of `node`, created on first use.
  NodeClock& touch_clock(int node);
  /// Reads node `node`'s clock: advances the reconstruction by the age
  /// since the previous read (latching `fault` on a half-range
  /// violation when the guard is on) and returns the engine clock.
  sim::Time advance_clock(NodeClock& clock);
  sim::Time local_now(int node) {
    if (clocks_.empty()) return now();  // hot path: no clock faults
    NodeClock* clock = clock_of(node);
    return clock != nullptr ? advance_clock(*clock) : now();
  }

  /// Sends one beat: assigns the next message id, draws its fate from
  /// the link's fault models (sim::decide_send) and posts the
  /// delivery (and any duplicate) on the wheel. Returns the id.
  std::uint64_t send(int from, int to, bool flag);

  /// Re-arms node `id`'s deadline timer at the global instant of its
  /// next event (TimerWheel::retime), or cancels it when there is none.
  void arm_node_timer(int id);
  void emit(ProtocolEvent::Kind kind, int node, std::uint64_t msg_id = 0,
            std::uint32_t fanout = 0);
  void channel(sim::ChannelEvent::Kind kind, int from, int to,
               std::uint64_t id) {
    if (sinks_.wants(kind)) {
      sinks_.emit(sim::ChannelEvent{kind, from, to, id, now()});
    }
  }
  void track_delivery(std::vector<std::uint64_t>& newest, int index,
                      std::uint64_t id);

  ClusterConfig config_;
  int timer_priority_;

  Wheel wheel_;
  Rng rng_;
  bool started_ = false;

  // Flat transport.
  sim::LinkFaults links_;
  sim::Time spec_max_delay_;
  std::uint64_t next_msg_id_ = 1;
  sim::NetworkStats net_stats_;
  ScaleStats scale_stats_;
  /// Per-link newest-delivered ids for the reordering counter: the
  /// topology is a star, so one entry per participant per direction.
  std::vector<std::uint64_t> newest_to_coord_;
  std::vector<std::uint64_t> newest_from_coord_;

  // Scheduled fault operands too wide for an Ev, indexed by its operand.
  std::vector<TimedLinkChange> link_changes_;
  std::vector<std::pair<std::int64_t, std::int64_t>> drift_rates_;
  /// Clocks of the nodes with drift or clock faults scheduled, sorted
  /// by node.
  std::vector<std::pair<int, NodeClock>> clocks_;

  CoordinatorState coord_;
  Wheel::Handle coord_timer_;
  /// Participant p[i] at index i (slot 0 unused).
  std::vector<ParticipantState> p_;
  std::vector<Wheel::Handle> p_timer_;

  rv::SinkChain sinks_;
};

}  // namespace ahb::hb
