// Backend 1: compile a past-time-LTL formula to a streaming monitor.
//
// The compiled form is a postorder instruction array, one instruction
// per subformula (quantifiers are expanded over the participant ids,
// bound expressions are resolved to concrete tick counts). Evaluation
// is one pass over the array per trace position — O(subformulas) time
// and O(subformulas) state, independent of the trace length, so a
// formula monitor is safe at any mission horizon.
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
// A violation is recorded whenever the formula's value falls from true
// to false (edge-triggered, so a standing violation is counted once
// until the formula recovers); recorded violations are capped, the
// total is always counted.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
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
/// postorder array.
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
};

/// Membership/liveness state shared by the fluent atoms; mirrors the
/// update rules of RequirementMonitor (registration) and
/// SuspicionMonitor (stops).
class FluentTracker {
 public:
  FluentTracker() = default;
  FluentTracker(proto::Variant variant, int participants);

  void apply(const hb::ProtocolEvent& event);

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

/// A formula lowered to the postorder instruction array plus the
/// interest masks of the events it can react to.
struct Compiled {
  std::vector<Instr> instrs;  ///< postorder; root is the last entry
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
/// resolve bound expressions, and flatten to postorder. Fails on
/// unbound variables, out-of-range participant ids, arguments on
/// channel atoms, or negative resolved bounds.
CompileResult compile(const Node& formula, const BindParams& params);

/// A named requirement stated as a formula; `requirement` keys the
/// emitted violations (R1–R3 use 1–3, the suspicion ladder uses 4,
/// ad-hoc formulas are free to pick higher numbers).
struct FormulaSpec {
  std::string name;
  std::string text;
  int requirement = 0;
};

/// The streaming evaluator: an EventSink over a compiled formula.
class FormulaMonitor final : public EventSink {
 public:
  FormulaMonitor(Compiled compiled, const BindParams& params,
                 std::string name, int requirement);

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
  /// Per-subformula committed value, postorder index (test hook).
  bool value_at(std::size_t i) const { return committed_[i] != 0; }
  std::size_t size() const { return committed_.size(); }

  std::uint64_t events_seen() const { return events_seen_; }

 private:
  struct State {
    std::uint8_t b = 0;  ///< Previously/Once/Historically/Since memory
    Time t = 0;          ///< Once/Before last-true time, Holds anchor
  };

  /// One evaluation pass at time `now`. Exactly one of the event
  /// pointers may be non-null (the step pass); both null for check
  /// passes and the initial position.
  bool eval(Time now, const hb::ProtocolEvent* pe, const sim::ChannelEvent* ce,
            bool commit, bool init);
  void observe(Time now, bool root_value);
  void handle(Time at, const hb::ProtocolEvent* pe, const sim::ChannelEvent* ce);

  std::vector<Instr> instrs_;
  std::vector<State> state_;
  std::vector<std::uint8_t> scratch_;
  std::vector<std::uint8_t> committed_;
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
