// Backend 1: compile a past-time-LTL formula to a streaming monitor.
//
// The compiled form is a postorder instruction array, one instruction
// per distinct subformula (quantifiers are expanded over the
// participant ids, bound expressions are resolved to concrete tick
// counts, and identical subformulas within one evaluation scope share
// one instruction). State is O(subformulas), independent of the trace
// length, so a formula monitor is safe at any mission horizon. The
// compiled program is read-only: every monitor of one configuration,
// on any thread, can share it.
//
// Two-pass discipline, matching the hand-written monitors' check-then-
// update order ("missed deadlines are detected by the first event
// after them, so the check precedes the event's own effect"): each
// incoming event first drives a *check* pass at the event's timestamp
// — event atoms all false, fluents still pre-event, temporal state
// read but not committed — and then, after the fluent tracker applies
// the event, a *step* pass that sees the event's atoms, the updated
// fluents, and commits temporal state. `finish(horizon)` is one final
// check pass. Temporal operators are therefore defined over the
// *committed* positions: the initial position at time 0 plus one
// position per event; check passes are phantom evaluations.
//
// Settled ranges: each outermost `forall`/`exists` expansion keeps a
// count of its instances that hold the fold's absorbing value (false
// for forall, true for exists) instead of evaluating its And/Or chain.
// The instances and the top range (every instruction outside the
// expansions) are the units a pass evaluates, and a pass evaluates
// only the units it can change: those an event atom or changed fluent
// names, those left unsettled by their last committed step (a position
// without events would change a value or operator memory), those whose
// time-bounded operators flip by the pass's timestamp, and the top
// range when an expansion's value changes. Every other unit would
// reproduce its last values and state exactly, so it is skipped; a
// pass with nothing due evaluates nothing and observes the committed
// root (DESIGN.md "Past-time LTL requirements").
//
// Phantom positions: compile() also proves, per unit, whether its root
// and every operator state survive an event-free position unchanged
// (a *stable* unit). A stable unit is never unsettled: it is evaluated
// only when an event names it or a time-bounded operator flips. An
// event that finds nothing due, whose committed root was the last
// value observed, and that wakes no unit costs a fluent update.
//
// A violation is recorded whenever the formula's value falls from true
// to false (edge-triggered, so a standing violation is counted once
// until the formula recovers); recorded violations are capped, the
// total is always counted.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "hb/protocol_event.hpp"
#include "hb/types.hpp"
#include "proto/rules.hpp"
#include "proto/timing.hpp"
#include "rv/event_sink.hpp"
#include "rv/monitor.hpp"
#include "rv/pltl/pltl.hpp"
#include "sim/link.hpp"

namespace ahb::rv::pltl {

/// Everything a formula's named parameters resolve against. The
/// derived slacks follow MonitorBounds::defaults so a formula and the
/// hand-written monitor it restates see identical deadlines.
struct BindParams {
  proto::Variant variant = proto::Variant::Binary;
  proto::Timing timing{};
  bool fixed_bounds = true;
  int participants = 1;
  int suspect_after_misses = 2;

  /// Value of a named bound parameter (tmin, r1_slack, ...).
  /// Precondition: is_bound_param(name).
  Time param(std::string_view name) const;
};

/// Derived cluster-state predicates, updated from the same protocol
/// events the hand-written monitors subscribe to.
enum class Fluent : std::uint8_t {
  CoordLive,      ///< coordinator has not inactivated or crashed
  CoordStopped,   ///< !CoordLive
  Stopped,        ///< participant `node` crashed, left, or inactivated
  Alive,          ///< !Stopped
  Member,         ///< participant `node` registered at the coordinator
  AllStopped,     ///< every participant is stopped
  AnyRegistered,  ///< the coordinator has at least one registered member
};

/// One compiled subformula. `a`/`b` index earlier instructions in the
/// postorder array. Equal instructions compute equal values, which is
/// what lets compile() share them.
struct Instr {
  Node::Kind op = Node::Kind::True;
  int a = -1;
  int b = -1;
  /// Event atoms: the protocol- or channel-kind bit this atom matches
  /// (exactly one bit set in exactly one of the two masks).
  std::uint32_t protocol_bits = 0;
  std::uint32_t channel_bits = 0;
  int node = -1;       ///< event/fluent participant filter; -1 = any
  Fluent fluent{};     ///< Node::Kind::Fluent only
  Time bound = 0;      ///< resolved Once/Before/Holds bound
  Cmp cmp = Cmp::Le;

  bool operator==(const Instr&) const = default;
};

/// Bits of FluentTracker::apply's result: which fluents an event
/// changed. The shared bits cover the participant-free fluents; the
/// last two name the event's own participant.
enum FluentChange : std::uint8_t {
  kCoordChanged = 1u << 0,          ///< coord_live / coord_stopped
  kAllStoppedChanged = 1u << 1,
  kAnyRegisteredChanged = 1u << 2,
  kStoppedChanged = 1u << 3,        ///< stopped/alive(event.node)
  kMemberChanged = 1u << 4,         ///< member(event.node)
};

/// Membership/liveness state shared by the fluent atoms; mirrors the
/// update rules of RequirementMonitor (registration) and
/// SuspicionMonitor (stops).
class FluentTracker {
 public:
  FluentTracker() = default;
  FluentTracker(proto::Variant variant, int participants);

  /// Applies `event`; returns the FluentChange bits it flipped.
  std::uint8_t apply(const hb::ProtocolEvent& event);

  bool coordinator_live() const { return coordinator_live_; }
  bool stopped(int node) const;
  bool member(int node) const;
  bool all_stopped() const { return live_count_ == 0; }
  bool any_registered() const { return member_count_ > 0; }

 private:
  int participants_ = 0;
  std::vector<std::uint8_t> stopped_;
  std::vector<std::uint8_t> member_;
  int live_count_ = 0;
  int member_count_ = 0;
  bool coordinator_live_ = true;
};

/// One outermost `forall`/`exists` expansion in the instruction array.
/// Instance k (participant id k + 1) is the contiguous range
/// [instances[k].begin, instances[k].root]; for k >= 1 the join that
/// folds it into the instances before it follows at instances[k].join
/// (root + 1). The expansion's value is the last instance's join, or
/// the root of its only instance. Quantifiers nested inside an
/// instance are part of that instance's range and are not listed. An
/// instance's operands lie inside its own range.
struct Expansion {
  struct Range {
    int begin = 0;
    int root = 0;
    int join = -1;  ///< -1 for the first instance
    /// At an event-free position — every event atom and `init` false,
    /// every fluent unchanged, no time-bounded operator flipping — the
    /// root and every operator state keep their committed values: the
    /// instance needs no evaluation until an event names it or a flip
    /// is due.
    bool stable = false;
  };
  bool conj = true;  ///< forall (And joins) or exists (Or joins)
  std::vector<Range> instances;
  /// Participant-free event atoms and shared FluentChange bits its
  /// instances read: an event matching them wakes every instance.
  std::uint32_t protocol_bits = 0;
  std::uint32_t channel_bits = 0;
  std::uint8_t fluent_bits = 0;
  int result() const {
    const Range& last = instances.back();
    return last.join >= 0 ? last.join : last.root;
  }
};

/// An expansion instance that reads a participant-specific atom or
/// fluent of participant `node`. `instance` counts the instances of
/// every expansion in order.
struct Watch {
  int node = 0;
  int instance = 0;
  std::uint32_t protocol_bits = 0;
  std::uint8_t fluent_bits = 0;  ///< kStoppedChanged / kMemberChanged
};

/// A formula lowered to the postorder instruction array plus the
/// interest masks of the events it can react to and the wake-up
/// tables of its evaluation units.
struct Compiled {
  std::vector<Instr> instrs;  ///< postorder; root is the last entry
  std::vector<Expansion> expansions;  ///< outermost, in postorder
  std::vector<Watch> watches;         ///< sorted by node, then instance
  /// What the top range (the instructions outside the expansions)
  /// reads: event atoms of any participant and every FluentChange bit
  /// of its fluents.
  std::uint32_t top_protocol_bits = 0;
  std::uint32_t top_channel_bits = 0;
  std::uint8_t top_fluent_bits = 0;
  /// The top range is stable, as an instance can be, given unchanged
  /// expansion values (an expansion whose value changes wakes the top
  /// range anyway).
  bool top_stable = false;
  std::uint32_t protocol_mask = 0;
  std::uint32_t channel_mask = 0;
  bool uses_fluents = false;
  int participants = 0;
};

struct CompileResult {
  Compiled compiled;
  std::string error;  ///< empty on success
  bool ok() const { return error.empty(); }
};

/// Expand quantifiers over participant ids 1..params.participants,
/// resolve bound expressions, and flatten to postorder, sharing equal
/// instructions within one scope: one outermost expansion instance, or
/// one run of top-range instructions between expansions. Fails on
/// unbound variables, out-of-range participant ids, arguments on
/// channel atoms, negative resolved bounds, or a tree taller than
/// kMaxDepth. Every unit's stability is decided here, once per
/// configuration, so building a monitor scans no instruction.
CompileResult compile(const Node& formula, const BindParams& params);

/// A named requirement stated as a formula; `requirement` keys the
/// emitted violations (R1–R3 use 1–3, the suspicion ladder uses 4,
/// ad-hoc formulas are free to pick higher numbers).
struct FormulaSpec {
  std::string name;
  std::string text;
  int requirement = 0;
};

/// The streaming evaluator: an EventSink over a compiled formula. It
/// only reads `program`, which monitors of the same configuration may
/// share.
class FormulaMonitor final : public EventSink {
 public:
  FormulaMonitor(std::shared_ptr<const Compiled> program,
                 const BindParams& params, std::string name, int requirement);

  std::uint32_t protocol_interest() const override { return protocol_mask_; }
  std::uint32_t channel_interest() const override { return channel_mask_; }
  void on_protocol_event(const hb::ProtocolEvent& event) override;
  void on_channel_event(const sim::ChannelEvent& event) override;
  void finish(Time horizon) override;

  const std::string& name() const { return name_; }
  int requirement() const { return requirement_; }

  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t violations_total() const { return violations_total_; }
  /// Cap on *recorded* violations (the total is always counted).
  void set_max_recorded(std::size_t cap) { max_recorded_ = cap; }

  /// Root value at the last committed position (test hook).
  bool value() const { return committed_.empty() ? true : committed_.back() != 0; }
  /// Per-subformula committed value, postorder index (test hook). Roots
  /// and joins are exact; inside a stable unit (Expansion::Range) the
  /// values are those of its last evaluation, which an event-free
  /// position may have changed without changing the root.
  bool value_at(std::size_t i) const;
  std::size_t size() const { return committed_.size(); }

  std::uint64_t events_seen() const { return events_seen_; }
  /// Quantifier instances evaluated so far, over all passes (the
  /// initial position evaluates every instance once).
  std::uint64_t instances_evaluated() const { return instances_evaluated_; }
  /// Passes that evaluated any instruction (the initial position is
  /// one); a pass with nothing due is not counted.
  std::uint64_t passes_evaluated() const { return passes_evaluated_; }

 private:
  struct State {
    /// Previously/Historically/Since/unbounded-Once memory. Bounded
    /// Once and Before: the operand held at the last committed
    /// position, whose time is then the witness time (`t` is stale).
    std::uint8_t b = 0;
    Time t = 0;  ///< Once/Before last-true time, Holds anchor
  };

  /// One outermost quantifier expansion (program_->expansions at the
  /// same index): its And/Or join chain is replaced by a count of
  /// instances holding the absorbing value.
  struct Group {
    int first = 0;       ///< first instruction of the first instance
    int result = 0;      ///< instruction holding the expansion's value
    int inst_begin = 0;  ///< [inst_begin, inst_end) index instances_
    int inst_end = 0;
    bool conj = true;
    /// The expansion's shared bits, copied so that wake() reads one
    /// array per event; reading them through program_ was measurably
    /// slower on chaos campaigns.
    std::uint32_t protocol_bits = 0;
    std::uint32_t channel_bits = 0;
    std::uint8_t fluent_bits = 0;
    int committed = 0;  ///< instances holding the absorbing value
    int pass = 0;       ///< the same during a pass; == committed between
  };

  struct Instance {
    int begin = 0;
    int root = 0;
    int group = 0;
    bool stable = false;        ///< copied from its Expansion::Range
    Time wake = 0;              ///< kUnsettled, next flip time, or kNever
    Time scheduled = hb::kNever;  ///< time of its live entry in flips_
    std::uint64_t queued = 0;   ///< pass id it was last made due in
  };

  struct Pass {
    Time now = 0;
    const hb::ProtocolEvent* pe = nullptr;  ///< step passes only
    const sim::ChannelEvent* ce = nullptr;
    bool init = false;
  };

  /// Evaluates instructions [begin, end); returns the last one's value.
  /// A committing pass also updates operator state and committed_, and
  /// lowers `wake` to the earliest time the range may stop reproducing
  /// what it committed at a position without events: kUnsettled (at
  /// once, never for a `stable` range), the next flip of a time-bounded
  /// operator, or kNever.
  template <bool kCommit>
  bool eval_range(int begin, int end, const Pass& pass, bool stable,
                  Time& wake);
  /// Evaluates the due instances, updating their groups' pass counts.
  template <bool kCommit>
  void eval_due(const Pass& pass);
  /// One evaluation pass: the due instances, then the top range if it
  /// is due or a group's value changed; returns the root value.
  template <bool kCommit>
  bool eval(const Pass& pass);
  void make_due(int k);
  /// Makes due the unsettled instances and those whose flip is <= now,
  /// and the top range on the same rules.
  void collect_due(Time now);
  /// Makes due the units an event's atoms or fluent changes name.
  void wake(const hb::ProtocolEvent* pe, const sim::ChannelEvent* ce,
            std::uint8_t changed);
  /// Files instance `k` under its `wake` for a later pass.
  void requeue(int k);
  void observe(Time now, bool root_value);
  void handle(Time at, const hb::ProtocolEvent* pe, const sim::ChannelEvent* ce);

  std::shared_ptr<const Compiled> program_;
  std::vector<State> state_;
  std::vector<std::uint8_t> scratch_;
  std::vector<std::uint8_t> committed_;
  std::vector<Group> groups_;
  std::vector<Instance> instances_;
  std::vector<int> due_;          ///< instances the current event evaluates
  std::vector<int> unsettled_;    ///< due at the next pass
  std::priority_queue<std::pair<Time, int>, std::vector<std::pair<Time, int>>,
                      std::greater<>>
      flips_;  ///< (flip time, instance); superseded entries are skipped
  std::uint64_t pass_id_ = 0;
  Time last_commit_ = 0;          ///< time of the last committed position
  Time top_wake_ = 0;             ///< the top range's wake, as an instance's
  bool top_due_ = true;           ///< the top range is due this pass
  FluentTracker tracker_;
  std::uint32_t protocol_mask_ = 0;
  std::uint32_t channel_mask_ = 0;
  std::string name_;
  int requirement_ = 0;
  bool last_value_ = true;
  std::vector<Violation> violations_;
  std::uint64_t violations_total_ = 0;
  std::size_t max_recorded_ = 32;
  std::uint64_t events_seen_ = 0;
  std::uint64_t instances_evaluated_ = 0;
  std::uint64_t passes_evaluated_ = 0;
};

/// Parse + compile + wrap: the one-call path from a FormulaSpec to a
/// ready-to-attach sink. `error` explains a parse or compile failure.
struct MonitorResult {
  std::unique_ptr<FormulaMonitor> monitor;
  std::string error;
  bool ok() const { return monitor != nullptr; }
};

MonitorResult make_monitor(const FormulaSpec& spec, const BindParams& params);

}  // namespace ahb::rv::pltl
