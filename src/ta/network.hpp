// Discrete-time timed-automata networks (the UPPAAL stand-in).
//
// Semantics (digitized): time advances in unit ticks that increment every
// clock simultaneously; discrete transitions are instantaneous. A tick is
// enabled iff no automaton occupies an urgent or committed location and
// every location invariant still holds after the increment. Clocks
// saturate at a per-clock cap (one above the largest constant they are
// compared against), which keeps the state space finite without changing
// the truth of any guard.
//
// Digitization is sound and complete for the reachability properties
// checked in this repository because all upper-bound guards and
// invariants in the models are closed (<=, ==) with integer constants
// (Henzinger/Manna/Pnueli); the only strict comparisons are lower bounds.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "ta/codec.hpp"
#include "ta/ids.hpp"
#include "ta/state.hpp"

namespace ahb::ta {

class Network;

/// Read-only view of a state, resolved through the network layout.
/// Guards and invariants receive one of these.
class StateView {
 public:
  StateView(const Network& net, const State& state)
      : net_(&net), state_(&state) {}
  // A view must not outlive its state; binding a temporary is an error.
  StateView(const Network&, State&&) = delete;

  Slot loc(AutomatonId a) const;
  Slot var(VarId v) const;
  Slot clk(ClockId c) const;

  /// True iff automaton `a` currently occupies location index `loc`.
  bool in(AutomatonId a, int loc_index) const { return loc(a) == loc_index; }

  const Network& network() const { return *net_; }
  const State& state() const { return *state_; }

 private:
  const Network* net_;
  const State* state_;
};

/// Mutable access used by edge effects. Effects may update variables and
/// reset clocks; location changes are applied by the engine itself.
class StateMut {
 public:
  StateMut(const Network& net, State& state) : net_(&net), state_(&state) {}

  Slot var(VarId v) const;
  Slot clk(ClockId c) const;
  Slot loc(AutomatonId a) const;

  void set(VarId v, int value);
  void reset(ClockId c);

 private:
  const Network* net_;
  State* state_;
};

using Guard = std::function<bool(const StateView&)>;
using Effect = std::function<void(StateMut&)>;

struct Edge {
  int src = -1;
  int dst = -1;
  ChanId chan{};            ///< invalid (-1) for internal edges
  SyncDir dir = SyncDir::None;
  Guard guard;              ///< null means "true"
  Effect effect;            ///< null means "no effect"
  std::string label;        ///< action name used in counterexample traces
  int priority = 0;         ///< among enabled discrete transitions, only
                            ///< those of maximal priority may fire
  /// Partial-order-reduction contract: the edge's effect writes only
  /// slots that no other automaton's guard, invariant or effect reads,
  /// and no verification predicate depends on those slots or on the
  /// participating locations. Declaring an edge invisible when this
  /// does not hold makes the ample reduction unsound.
  bool invisible = false;
};

/// The kinds and parts of one discrete or delay step of the network.
struct Transition {
  enum class Kind : std::uint8_t { Tick, Internal, Sync, Broadcast };

  struct Part {
    int automaton = -1;
    int edge = -1;  ///< index into that automaton's edge list

    friend bool operator==(const Part&, const Part&) = default;
  };
};

/// Borrowed view of one successor, handed to for_each_successor
/// callbacks. `target` (and the receiver span) point into the
/// SuccessorScratch and are valid only for the duration of the callback;
/// copy them (e.g. by interning) to keep them.
struct SuccessorView {
  std::span<const Slot> target;
  Transition::Kind kind = Transition::Kind::Tick;
  Transition::Part sender{};  ///< the internal edge for Kind::Internal
  std::span<const Transition::Part> receivers;  ///< one for Sync, zero or
                                                ///< more for Broadcast
};

/// Reusable per-caller (per-worker) buffers for successor generation.
/// One scratch must not be shared between concurrent callers, and a
/// callback running inside for_each_successor must not re-enter the
/// generator with the same scratch (use a second scratch instead).
///
/// All members are implementation details of Network::for_each_successor;
/// callers only default-construct and reuse the object.
struct SuccessorScratch {
  std::vector<Slot> targets;             ///< packed candidate target states
  std::vector<Transition::Part> parts;   ///< sender+receivers, packed
  struct Record {
    Transition::Kind kind;
    std::uint32_t parts_begin = 0;  ///< into `parts`; first part = sender
    std::uint32_t parts_count = 0;
    std::uint32_t target_begin = 0;  ///< into `targets`
    int priority = 0;
  };
  std::vector<Record> records;
  State candidate;  ///< working buffer for effect application

  // Broadcast enumeration buffers (flattened receive-option groups plus
  // the mixed-radix counter over them).
  std::vector<Transition::Part> bcast_enabled;
  std::vector<std::uint32_t> bcast_offsets;
  std::vector<std::size_t> bcast_pick;
  std::vector<Transition::Part> bcast_parts;
};

/// A network of timed automata over shared variables, clocks and channels.
///
/// Usage: construct, add automata/locations/edges/variables/clocks/
/// channels, then freeze(); afterwards only the semantic queries
/// (initial_state, for_each_successor, ...) may be used.
class Network {
 public:
  Network() = default;

  // ---- construction (before freeze) ----

  AutomatonId add_automaton(std::string name);

  /// Adds a location; returns its index within the automaton.
  /// The first location added is the initial one unless set_initial is
  /// called. `invariant` is evaluated on candidate states (after ticks
  /// and after discrete transitions); a null invariant is "true".
  int add_location(AutomatonId a, std::string name,
                   LocKind kind = LocKind::Normal, Guard invariant = nullptr);

  void set_initial(AutomatonId a, int loc_index);

  VarId add_var(std::string name, int init);

  /// Declares the variable's reachable range [min, max] — used by the
  /// state codec to bit-pack the slot — and optionally the automaton
  /// whose COLLAPSE component the variable belongs to (an invalid id
  /// leaves it shared, i.e. stored in the collapse root). The range is
  /// a contract: the codec aborts on out-of-range values, so declare a
  /// superset when in doubt. The two-argument overload keeps the full
  /// Slot range and no owner.
  VarId add_var(std::string name, int init, int min, int max,
                AutomatonId owner = AutomatonId{});

  ClockId add_clock(std::string name, int cap);
  ChanId add_channel(std::string name, ChanKind kind);

  void add_edge(AutomatonId a, Edge edge);

  // ---- reduction declarations (before freeze) ----

  /// One symmetric participant: the automata, variables and clocks that
  /// make up its block, in a fixed role order shared by every block.
  struct SymmetryMember {
    std::vector<AutomatonId> automata;
    std::vector<VarId> vars;
    std::vector<ClockId> clocks;
  };

  /// Declares one block of the full-symmetry (scalarset) group. All
  /// blocks must be congruent: same member counts in the same role
  /// order, with identical location counts / ranges / caps position by
  /// position (checked at freeze). Soundness contract: the model must
  /// be equivariant under permuting the blocks — congruent edge
  /// structure and permutation-invariant shared guards and predicates.
  void add_symmetry_block(SymmetryMember member);

  /// Declares that `v` is never read while automaton `a` occupies
  /// location `loc_index` before being rewritten, so canonicalization
  /// may reset it to `value` there (dead-variable reduction).
  void declare_dead_var(AutomatonId a, int loc_index, VarId v, int value);

  /// Same for a clock; dead clocks reset to 0.
  void declare_dead_clock(AutomatonId a, int loc_index, ClockId c);

  /// Validates the model and fixes the state layout. Must be called
  /// exactly once, before any semantic query.
  void freeze();

  // ---- semantics (after freeze) ----

  bool frozen() const { return frozen_; }
  State initial_state() const;

  /// Streams the enabled transitions of `s` into `f` without
  /// allocating: the maximal-priority discrete transitions (respecting
  /// committed-location semantics), then the tick if delay is allowed.
  /// Candidate targets are built in `scratch`, which is reused across
  /// calls. `f` receives a SuccessorView valid only during the call; if
  /// `f` returns bool, returning false stops the enumeration early.
  template <typename F>
  void for_each_successor(const State& s, SuccessorScratch& scratch,
                          F&& f) const {
    for_each_successor_dispatch(s, scratch, /*reduced=*/false,
                                std::forward<F>(f));
  }

  /// Like for_each_successor, but applies the ample-set partial-order
  /// reduction at committed states: when one committed automaton's
  /// enabled records are all invisible and share no automaton with the
  /// other enabled records, only that automaton's records are emitted.
  /// Sound for any property over the declared-visible state because the
  /// pruned interleavings reach the same set of visible states (the
  /// caller's cycle proviso — committed chains are expanded with a
  /// bounded depth, see mc::Explorer — keeps repeated-state reasoning
  /// sound). At non-committed states this is exactly
  /// for_each_successor.
  template <typename F>
  void for_each_successor_reduced(const State& s, SuccessorScratch& scratch,
                                  F&& f) const {
    for_each_successor_dispatch(s, scratch, /*reduced=*/true,
                                std::forward<F>(f));
  }

  /// True iff `s` has at least one successor. Early-exits on the first
  /// applicable discrete edge instead of generating every successor
  /// (the emptiness test is the deadlock check, which runs once per
  /// explored state).
  bool has_successor(const State& s) const;
  bool has_successor(const State& s, SuccessorScratch& scratch) const;

  /// True iff the unit delay step is enabled in `s`.
  bool tick_enabled(const State& s) const;

  /// True iff every location invariant holds in `s`.
  bool invariants_hold(const State& s) const;

  /// True iff some automaton occupies a committed location in `s`.
  /// Committed states are transient (time is frozen and only
  /// committed-source edges may fire); the explorer's committed-chain
  /// fusion expands through them without interning.
  bool committed_location_active(const State& s) const;

  // ---- introspection ----

  std::size_t automaton_count() const { return automata_.size(); }
  std::size_t var_count() const { return vars_.size(); }
  std::size_t clock_count() const { return clocks_.size(); }
  std::size_t slot_count() const { return slot_count_; }

  /// Compressed-state codec derived from the layout at freeze() time.
  const StateCodec& codec() const { return codec_; }

  const std::string& automaton_name(AutomatonId a) const;
  const std::string& location_name(AutomatonId a, int loc_index) const;
  const std::string& var_name(VarId v) const;
  const std::string& clock_name(ClockId c) const;
  LocKind location_kind(AutomatonId a, int loc_index) const;

  /// Human-readable action label of a transition ("tick",
  /// "p0.send_beat >> ch.recv_beat", ...).
  std::string label_of(const SuccessorView& v) const;

  /// Multi-line dump of a state (locations, variables, clocks).
  std::string describe(const State& s) const;

  /// Single-line dump of a state.
  std::string describe_brief(const State& s) const;

 private:
  friend class StateView;
  friend class StateMut;

  struct Location {
    std::string name;
    LocKind kind = LocKind::Normal;
    Guard invariant;
  };

  struct Automaton {
    std::string name;
    std::vector<Location> locations;
    std::vector<Edge> edges;
    int initial = 0;
    std::uint32_t first_row = 0;  ///< edge-index row of location 0
  };

  struct VarDecl {
    std::string name;
    Slot init = 0;
    Slot min = std::numeric_limits<Slot>::min();
    Slot max = std::numeric_limits<Slot>::max();
    int owner = -1;  ///< owning automaton for COLLAPSE, -1 = shared
  };

  struct ClockDecl {
    std::string name;
    Slot cap = 0;
  };

  struct ChanDecl {
    std::string name;
    ChanKind kind = ChanKind::Handshake;
  };

  // Slot layout helpers (valid after freeze).
  std::size_t loc_slot(int automaton) const {
    return static_cast<std::size_t>(automaton);
  }
  std::size_t var_slot(int var) const {
    return automata_.size() + static_cast<std::size_t>(var);
  }
  std::size_t clock_slot(int clock) const {
    return automata_.size() + vars_.size() + static_cast<std::size_t>(clock);
  }

  /// Ids of automaton `automaton`'s edges leaving its location in `s`,
  /// ascending (one row of the edge index).
  std::span<const int> edges_from(int automaton, const State& s) const {
    const std::size_t row =
        automata_[static_cast<std::size_t>(automaton)].first_row +
        static_cast<std::size_t>(s[loc_slot(automaton)]);
    return std::span<const int>{edge_ids_}.subspan(
        edge_offsets_[row], edge_offsets_[row + 1] - edge_offsets_[row]);
  }

  /// Builds the unit delay successor of `s` into `out`; false (leaving
  /// `out` unspecified) when an urgent or committed location freezes
  /// time or an invariant rejects the delayed state.
  bool tick_into(const State& s, State& out) const;

  /// Applies a discrete transition (effects in `parts` order, then
  /// location moves) on top of `s` into the reusable buffer `out`;
  /// returns false (leaving `out` unspecified) when an invariant rejects
  /// the result.
  bool apply_discrete_into(const State& s,
                           std::span<const Transition::Part> parts,
                           State& out) const;

  /// Non-template core of for_each_successor. With `reduced`, the
  /// ample-set filter runs after priority filtering (see
  /// for_each_successor_reduced).
  void for_each_successor_impl(const State& s, SuccessorScratch& scratch,
                               bool (*f)(void*, const SuccessorView&),
                               void* ctx, bool reduced) const;

  template <typename F>
  void for_each_successor_dispatch(const State& s, SuccessorScratch& scratch,
                                   bool reduced, F&& f) const {
    for_each_successor_impl(
        s, scratch,
        [](void* ctx, const SuccessorView& v) -> bool {
          auto& fn =
              *static_cast<std::remove_const_t<std::remove_reference_t<F>>*>(
                  ctx);
          if constexpr (std::is_void_v<decltype(fn(v))>) {
            fn(v);
            return true;
          } else {
            return fn(v);
          }
        },
        const_cast<std::remove_const_t<std::remove_reference_t<F>>*>(
            std::addressof(f)),
        reduced);
  }

  /// Ample-set selection over the priority-surviving records: returns
  /// the chosen automaton id, or -1 when no sound ample subset exists
  /// (full expansion). `max_priority`/`have_nonzero` replicate the
  /// emission filter.
  int select_ample(const SuccessorScratch& scratch, int max_priority,
                   bool have_nonzero) const;

  /// Generates discrete candidates of `s` into scratch.records (priority
  /// filtering happens at emission time). With `first_only` it stops at
  /// the first applicable candidate. Returns whether any was recorded.
  bool collect_discrete_into(const State& s, bool committed_active,
                             SuccessorScratch& scratch,
                             bool first_only) const;

  struct DeadDecl {
    std::uint32_t loc_slot = 0;
    Slot loc_value = 0;
    std::uint32_t target_slot = 0;
    Slot value = 0;
  };

  std::vector<Automaton> automata_;
  std::vector<VarDecl> vars_;
  std::vector<ClockDecl> clocks_;
  std::vector<ChanDecl> chans_;
  std::vector<SymmetryMember> symmetry_blocks_;  ///< pending until freeze
  std::vector<DeadDecl> dead_decls_;             ///< pending until freeze
  /// Edge index, built at freeze: row `first_row + loc` of an automaton
  /// lists the ids of its edges with source `loc`, in ascending order,
  /// as edge_ids_[edge_offsets_[row] .. edge_offsets_[row + 1]).
  std::vector<std::uint32_t> edge_offsets_;
  std::vector<int> edge_ids_;
  StateCodec codec_;
  std::size_t slot_count_ = 0;
  bool frozen_ = false;
};

// ---- inline accessors ----

inline Slot StateView::loc(AutomatonId a) const {
  return (*state_)[net_->loc_slot(a.value)];
}
inline Slot StateView::var(VarId v) const {
  return (*state_)[net_->var_slot(v.value)];
}
inline Slot StateView::clk(ClockId c) const {
  return (*state_)[net_->clock_slot(c.value)];
}

inline Slot StateMut::var(VarId v) const {
  return (*state_)[net_->var_slot(v.value)];
}
inline Slot StateMut::clk(ClockId c) const {
  return (*state_)[net_->clock_slot(c.value)];
}
inline Slot StateMut::loc(AutomatonId a) const {
  return (*state_)[net_->loc_slot(a.value)];
}
inline void StateMut::set(VarId v, int value) {
  (*state_)[net_->var_slot(v.value)] = static_cast<Slot>(value);
}
inline void StateMut::reset(ClockId c) {
  (*state_)[net_->clock_slot(c.value)] = 0;
}

}  // namespace ahb::ta
