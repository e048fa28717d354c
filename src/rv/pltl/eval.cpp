#include "rv/pltl/eval.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/contracts.hpp"

namespace ahb::rv::pltl {
namespace {

using hb::kNever;
using PKind = hb::ProtocolEvent::Kind;
using CKind = sim::ChannelEvent::Kind;

constexpr std::size_t kMaxInstrs = 1u << 20;

struct EventAtom {
  std::string_view name;
  bool protocol;
  int kind;  ///< PKind / CKind enumerator value
};

constexpr EventAtom kEventAtoms[] = {
    {"beat", true, static_cast<int>(PKind::CoordinatorBeat)},
    {"c_recv_beat", true, static_cast<int>(PKind::CoordinatorReceivedBeat)},
    {"c_recv_leave", true, static_cast<int>(PKind::CoordinatorReceivedLeave)},
    {"c_inactive", true, static_cast<int>(PKind::CoordinatorInactivated)},
    {"c_crash", true, static_cast<int>(PKind::CoordinatorCrashed)},
    {"p_recv_beat", true, static_cast<int>(PKind::ParticipantReceivedBeat)},
    {"reply", true, static_cast<int>(PKind::ParticipantReplied)},
    {"join_beat", true, static_cast<int>(PKind::ParticipantJoinBeat)},
    {"leave", true, static_cast<int>(PKind::ParticipantLeft)},
    {"p_inactive", true, static_cast<int>(PKind::ParticipantInactivated)},
    {"p_crash", true, static_cast<int>(PKind::ParticipantCrashed)},
    {"rejoin", true, static_cast<int>(PKind::ParticipantRejoined)},
    {"sent", false, static_cast<int>(CKind::Sent)},
    {"delivered", false, static_cast<int>(CKind::Delivered)},
    {"lost", false, static_cast<int>(CKind::Lost)},
    {"blocked", false, static_cast<int>(CKind::Blocked)},
    {"duplicated", false, static_cast<int>(CKind::Duplicated)},
    {"corrupted", false, static_cast<int>(CKind::Corrupted)},
    {"rejected", false, static_cast<int>(CKind::Rejected)},
};

const EventAtom* find_event_atom(std::string_view name) {
  for (const auto& atom : kEventAtoms) {
    if (atom.name == name) return &atom;
  }
  return nullptr;
}

/// The protocol events that change any fluent: a formula with fluent
/// atoms must see these regardless of its event atoms, or its derived
/// state would silently diverge from the monitors'.
constexpr std::uint32_t fluent_driver_mask() {
  return protocol_bit(PKind::CoordinatorReceivedBeat) |
         protocol_bit(PKind::CoordinatorReceivedLeave) |
         protocol_bit(PKind::CoordinatorInactivated) |
         protocol_bit(PKind::CoordinatorCrashed) |
         protocol_bit(PKind::ParticipantInactivated) |
         protocol_bit(PKind::ParticipantCrashed) |
         protocol_bit(PKind::ParticipantLeft) |
         protocol_bit(PKind::ParticipantRejoined);
}

// ---------------------------------------------------------------------------
// Bound resolution.

bool eval_bexpr(const BoundExpr& expr, const BindParams& params, Time* out,
                std::string* error, int depth = 0) {
  if (depth > kMaxDepth) {
    *error = "bound expression nested deeper than " +
             std::to_string(kMaxDepth) + " levels";
    return false;
  }
  switch (expr.kind) {
    case BoundExpr::Kind::Num:
      *out = expr.num;
      return true;
    case BoundExpr::Kind::Param:
      if (!is_bound_param(expr.param)) {
        *error = "unknown bound parameter '" + expr.param + "'";
        return false;
      }
      *out = params.param(expr.param);
      return true;
    default: {
      Time lhs = 0;
      Time rhs = 0;
      if (!eval_bexpr(*expr.lhs, params, &lhs, error, depth + 1) ||
          !eval_bexpr(*expr.rhs, params, &rhs, error, depth + 1)) {
        return false;
      }
      switch (expr.kind) {
        case BoundExpr::Kind::Add: *out = lhs + rhs; break;
        case BoundExpr::Kind::Sub: *out = lhs - rhs; break;
        default: *out = lhs * rhs; break;
      }
      if (*out > (Time{1} << 60) || *out < -(Time{1} << 60)) {
        *error = "bound expression overflows";
        return false;
      }
      return true;
    }
  }
}

// ---------------------------------------------------------------------------
// Flattening.

/// Three independent products, so the hash costs about one multiply of
/// latency; equal instructions hash equal, and emit() compares in full.
std::size_t instr_hash(const Instr& ins) {
  const std::uint64_t operands =
      (std::uint64_t{static_cast<std::uint32_t>(ins.a)} << 32 |
       static_cast<std::uint32_t>(ins.b)) *
      0x9e3779b97f4a7c15ULL;
  const std::uint64_t atoms =
      (std::uint64_t{ins.protocol_bits} << 32 | ins.channel_bits) *
      0xc2b2ae3d27d4eb4fULL;
  const std::uint64_t rest =
      (static_cast<std::uint64_t>(ins.bound) ^
       std::uint64_t{static_cast<std::uint32_t>(ins.node)} << 32 ^
       static_cast<std::uint64_t>(ins.op) << 8 ^
       std::uint64_t{static_cast<std::uint8_t>(ins.fluent)} << 16 ^
       std::uint64_t{static_cast<std::uint8_t>(ins.cmp)} << 24) *
      0x165667b19e3779f9ULL;
  const std::uint64_t h = operands ^ atoms ^ rest;
  return static_cast<std::size_t>(h ^ h >> 32);
}

struct Flattener {
  const BindParams& params;
  Compiled out;
  std::string error;
  /// Quantifier variables bound around the node being flattened,
  /// innermost last: inner bindings shadow outer ones.
  std::vector<std::pair<std::string_view, int>> bindings;
  /// Hash-consing table over the current scope (one outermost
  /// expansion instance, or one run of top-range instructions):
  /// open addressing on instruction indices. An entry below
  /// `scope_begin` belongs to a closed scope and reads as empty, so
  /// opening a scope clears nothing.
  std::vector<int> memo = std::vector<int>(64, -1);
  int scope_begin = 0;

  bool fail(std::string message) {
    if (error.empty()) error = std::move(message);
    return false;
  }

  int size() const { return static_cast<int>(out.instrs.size()); }

  /// Appends `instr` unshared: emit()'s fallback, and an outermost
  /// expansion's joins, which are outside every scope and never
  /// evaluated.
  int append(const Instr& instr) {
    out.instrs.push_back(instr);
    return size() - 1;
  }

  /// The memo slot that holds `instr`, or the free slot it goes in.
  std::size_t slot_of(const Instr& instr) const {
    const std::size_t mask = memo.size() - 1;
    std::size_t slot = instr_hash(instr) & mask;
    while (memo[slot] >= scope_begin &&
           !(out.instrs[static_cast<std::size_t>(memo[slot])] == instr)) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  /// The index of an instruction equal to `instr` in the current
  /// scope, appending it if there is none.
  int emit(const Instr& instr) {
    const std::size_t slot = slot_of(instr);
    if (memo[slot] >= scope_begin) return memo[slot];
    const int idx = append(instr);
    memo[slot] = idx;
    if (2 * static_cast<std::size_t>(size() - scope_begin) > memo.size()) {
      memo.assign(2 * memo.size(), -1);
      for (int i = scope_begin; i < size(); ++i) {
        memo[slot_of(out.instrs[static_cast<std::size_t>(i)])] = i;
      }
    }
    return idx;
  }

  void open_scope() { scope_begin = size(); }

  /// The participant id an atom argument names: its literal, or the
  /// innermost binding of its variable. Fails on an unbound variable.
  bool resolve(const Node& node, std::int64_t* id) {
    if (node.arg != Node::Arg::Var) {
      *id = node.arg_num;
      return true;
    }
    for (auto it = bindings.rbegin(); it != bindings.rend(); ++it) {
      if (it->first == node.arg_var) {
        *id = it->second;
        return true;
      }
    }
    return fail("unbound variable '" + node.arg_var + "' in '" + node.name +
                "'");
  }

  /// Appends the instruction(s) for `node` at tree depth `depth` and
  /// stores the index of its value in *idx.
  bool flatten(const Node& node, int* idx, int depth) {
    if (out.instrs.size() >= kMaxInstrs) {
      return fail("formula too large after quantifier expansion");
    }
    if (depth > kMaxDepth) {
      return fail("formula nested deeper than " + std::to_string(kMaxDepth) +
                  " levels");
    }
    Instr instr;
    instr.op = node.kind;
    switch (node.kind) {
      case Node::Kind::True:
      case Node::Kind::False:
      case Node::Kind::Init:
        break;
      case Node::Kind::Event: {
        const EventAtom* atom = find_event_atom(node.name);
        if (atom == nullptr) return fail("unknown event '" + node.name + "'");
        if (atom->protocol) {
          instr.protocol_bits = 1u << atom->kind;
        } else {
          instr.channel_bits = 1u << atom->kind;
          if (node.arg != Node::Arg::None) {
            return fail("channel atom '" + node.name +
                        "' does not take an argument");
          }
        }
        std::int64_t id = 0;
        if (!resolve(node, &id)) return false;
        if (node.arg != Node::Arg::None) {
          if (id < 0 || id > params.participants) {
            return fail("participant id out of range in '" + node.name + "'");
          }
          instr.node = static_cast<int>(id);
        }
        out.protocol_mask |= instr.protocol_bits;
        out.channel_mask |= instr.channel_bits;
        break;
      }
      case Node::Kind::Fluent: {
        std::int64_t id = 0;
        if (!resolve(node, &id)) return false;
        if (node.name == "coord_live") {
          instr.fluent = Fluent::CoordLive;
        } else if (node.name == "coord_stopped") {
          instr.fluent = Fluent::CoordStopped;
        } else if (node.name == "stopped") {
          instr.fluent = Fluent::Stopped;
        } else if (node.name == "alive") {
          instr.fluent = Fluent::Alive;
        } else if (node.name == "member" || node.name == "registered") {
          instr.fluent = Fluent::Member;
        } else if (node.name == "all_stopped") {
          instr.fluent = Fluent::AllStopped;
        } else if (node.name == "any_registered") {
          instr.fluent = Fluent::AnyRegistered;
        } else {
          return fail("unknown fluent '" + node.name + "'");
        }
        if (node.arg != Node::Arg::None) {
          if (id < 1 || id > params.participants) {
            return fail("participant id out of range in '" + node.name + "'");
          }
          instr.node = static_cast<int>(id);
        }
        out.uses_fluents = true;
        break;
      }
      case Node::Kind::Not:
      case Node::Kind::Previously:
      case Node::Kind::Historically:
        if (!flatten(*node.lhs, &instr.a, depth + 1)) return false;
        break;
      case Node::Kind::Once:
      case Node::Kind::Before:
      case Node::Kind::Holds: {
        if (!flatten(*node.lhs, &instr.a, depth + 1)) return false;
        if (node.bound) {
          instr.cmp = node.bound->cmp;
          if (!eval_bexpr(*node.bound->expr, params, &instr.bound, &error)) {
            return false;
          }
          if (instr.bound < 0) return fail("bound resolves negative");
        } else {
          AHB_ASSERT(node.kind == Node::Kind::Once);
          instr.bound = kNever;  // unbounded `once`
        }
        break;
      }
      case Node::Kind::And:
      case Node::Kind::Or:
      case Node::Kind::Implies:
      case Node::Kind::Iff:
      case Node::Kind::Since:
        if (!flatten(*node.lhs, &instr.a, depth + 1)) return false;
        if (!flatten(*node.rhs, &instr.b, depth + 1)) return false;
        break;
      case Node::Kind::Forall:
      case Node::Kind::Exists: {
        // Expand here: flatten the body once per participant id, with
        // the variable bound to it. Each copy is a contiguous range
        // ending in its root; outermost expansions record their ranges
        // and joins for the monitor, and each of their instances is a
        // scope of its own.
        const bool outermost = bindings.empty();
        Expansion expansion;
        expansion.conj = node.kind == Node::Kind::Forall;
        if (outermost) {
          expansion.instances.reserve(
              static_cast<std::size_t>(params.participants));
        }
        int acc = -1;
        for (int id = 1; id <= params.participants; ++id) {
          const int begin = size();
          if (outermost) open_scope();
          int b = -1;
          bindings.emplace_back(node.name, id);
          const bool flattened = flatten(*node.lhs, &b, depth + 1);
          bindings.pop_back();
          if (!flattened) return false;
          if (outermost) expansion.instances.push_back({begin, b});
          if (acc < 0) {
            acc = b;
          } else {
            Instr join;
            join.op = expansion.conj ? Node::Kind::And : Node::Kind::Or;
            join.a = acc;
            join.b = b;
            acc = outermost ? append(join) : emit(join);
            if (outermost) expansion.instances.back().join = acc;
          }
        }
        if (outermost) open_scope();  // the next top-range run
        if (acc < 0) {
          // No participants: forall is vacuously true, exists false.
          Instr empty;
          empty.op = expansion.conj ? Node::Kind::True : Node::Kind::False;
          acc = emit(empty);
        } else if (outermost) {
          out.expansions.push_back(std::move(expansion));
        }
        *idx = acc;
        return true;
      }
    }
    *idx = emit(instr);
    return true;
  }
};

/// The FluentChange bit an event sets when it may change `fluent`.
std::uint8_t change_bit(Fluent fluent) {
  switch (fluent) {
    case Fluent::CoordLive:
    case Fluent::CoordStopped: return kCoordChanged;
    case Fluent::AllStopped: return kAllStoppedChanged;
    case Fluent::AnyRegistered: return kAnyRegisteredChanged;
    case Fluent::Stopped:
    case Fluent::Alive: return kStoppedChanged;
    case Fluent::Member: return kMemberChanged;
  }
  AHB_UNREACHABLE("unknown fluent");
}

/// Fills the wake-up tables of `compiled`: what the top range and each
/// expansion read, and which instances each participant's atoms and
/// fluents name.
void index_units(Compiled& compiled) {
  const auto read_top = [&compiled](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      const Instr& ins = compiled.instrs[static_cast<std::size_t>(i)];
      if (ins.op == Node::Kind::Event) {
        compiled.top_protocol_bits |= ins.protocol_bits;
        compiled.top_channel_bits |= ins.channel_bits;
      } else if (ins.op == Node::Kind::Fluent) {
        compiled.top_fluent_bits |= change_bit(ins.fluent);
      }
    }
  };
  auto& watches = compiled.watches;
  const auto add_watch = [&watches](int node, int k,
                                    std::uint32_t protocol_bits,
                                    std::uint8_t fluent_bits) {
    // An instance's atoms mostly name one participant: merge in place.
    if (!watches.empty() && watches.back().node == node &&
        watches.back().instance == k) {
      watches.back().protocol_bits |= protocol_bits;
      watches.back().fluent_bits |= fluent_bits;
    } else {
      watches.push_back({node, k, protocol_bits, fluent_bits});
    }
  };
  int top_begin = 0;
  int k = 0;
  for (Expansion& expansion : compiled.expansions) {
    read_top(top_begin, expansion.instances.front().begin);
    for (const Expansion::Range& range : expansion.instances) {
      for (int i = range.begin; i <= range.root; ++i) {
        const Instr& ins = compiled.instrs[static_cast<std::size_t>(i)];
        if (ins.op == Node::Kind::Event) {
          if (ins.node < 0) {
            expansion.protocol_bits |= ins.protocol_bits;
            expansion.channel_bits |= ins.channel_bits;
          } else {
            add_watch(ins.node, k, ins.protocol_bits, 0);
          }
        } else if (ins.op == Node::Kind::Fluent) {
          if (ins.node < 0) {
            expansion.fluent_bits |= change_bit(ins.fluent);
          } else {
            add_watch(ins.node, k, 0, change_bit(ins.fluent));
          }
        }
      }
      ++k;
    }
    top_begin = expansion.result() + 1;
  }
  read_top(top_begin, static_cast<int>(compiled.instrs.size()));
  // Sorted by node for the monitor's lookup. Duplicates left after
  // sorting only cost a repeated make_due, which is idempotent.
  std::sort(watches.begin(), watches.end(), [](const Watch& x, const Watch& y) {
    return x.node != y.node ? x.node < y.node : x.instance < y.instance;
  });
}

// ---------------------------------------------------------------------------
// Phantom positions.

/// An instruction's value at an event-free position — every event atom
/// and `init` false, every fluent unchanged, no time-bounded operator
/// flipping — given the operator state its last committed position
/// left: constant, or equal to the value committed there.
enum class Phantom : std::uint8_t { Unknown, True, False, Equal };

Phantom negate(Phantom p) {
  switch (p) {
    case Phantom::True: return Phantom::False;
    case Phantom::False: return Phantom::True;
    default: return p;
  }
}

/// Both operands equal to their committed values make the result equal
/// to its own; a constant operand says nothing of the committed result.
Phantom conj(Phantom a, Phantom b) {
  if (a == Phantom::False || b == Phantom::False) return Phantom::False;
  if (a == Phantom::True && b == Phantom::True) return Phantom::True;
  if (a == Phantom::Equal && b == Phantom::Equal) return Phantom::Equal;
  return Phantom::Unknown;
}

Phantom disj(Phantom a, Phantom b) {
  return negate(conj(negate(a), negate(b)));
}

Phantom iff(Phantom a, Phantom b) {
  const auto constant = [](Phantom p) {
    return p == Phantom::True || p == Phantom::False;
  };
  if (constant(a) && constant(b)) {
    return a == b ? Phantom::True : Phantom::False;
  }
  return a == Phantom::Equal && b == Phantom::Equal ? Phantom::Equal
                                                     : Phantom::Unknown;
}

/// `a since b` is `b || (a && m)`, where the memory m is the committed
/// value.
Phantom since(Phantom a, Phantom b) {
  switch (b) {
    case Phantom::True: return Phantom::True;
    case Phantom::False:
      if (a == Phantom::True) return Phantom::Equal;
      return a == Phantom::False ? Phantom::False : Phantom::Unknown;
    case Phantom::Equal:
      return a == Phantom::True || a == Phantom::Equal ? Phantom::Equal
                                                       : Phantom::Unknown;
    case Phantom::Unknown: break;
  }
  return Phantom::Unknown;
}

/// Classifies instructions [begin, end) into `cls` (operands before
/// `begin` already classified) and returns whether every operator
/// state among them survives an event-free position:
/// - `previously` stores its operand, so the operand must be Equal;
/// - `historically`, `since` and unbounded `once` store their value,
///   which must be Equal;
/// - bounded `once` keeps "operand true at the last commit" and its
///   witness, `holds` its anchor: the operand must be Equal (a flip is
///   scheduled, and a unit whose flip is due is evaluated);
/// - `before` with a true operand moves its witness to every new
///   position (trap 2), so it never survives.
bool classify(const std::vector<Instr>& instrs, int begin, int end,
              std::vector<Phantom>& cls) {
  const auto operand = [&cls](int j) {
    return j >= 0 ? cls[static_cast<std::size_t>(j)] : Phantom::Unknown;
  };
  bool stable = true;
  for (int i = begin; i < end; ++i) {
    const Instr& ins = instrs[static_cast<std::size_t>(i)];
    const Phantom a = operand(ins.a);
    const Phantom b = operand(ins.b);
    Phantom v = Phantom::Unknown;
    switch (ins.op) {
      case Node::Kind::True: v = Phantom::True; break;
      case Node::Kind::False:
      case Node::Kind::Init:
      case Node::Kind::Event: v = Phantom::False; break;
      case Node::Kind::Fluent: v = Phantom::Equal; break;
      case Node::Kind::Not: v = negate(a); break;
      case Node::Kind::And: v = conj(a, b); break;
      case Node::Kind::Or: v = disj(a, b); break;
      case Node::Kind::Implies: v = disj(negate(a), b); break;
      case Node::Kind::Iff: v = iff(a, b); break;
      case Node::Kind::Previously:
        // Its value is the operand's committed value, not its own.
        stable = stable && a == Phantom::Equal;
        break;
      case Node::Kind::Historically:
        // `m && a` with m the committed value: m implies a was true.
        v = a == Phantom::True || a == Phantom::Equal ? Phantom::Equal : a;
        stable = stable && v == Phantom::Equal;
        break;
      case Node::Kind::Since:
        v = since(a, b);
        stable = stable && v == Phantom::Equal;
        break;
      case Node::Kind::Once:
        if (ins.bound == kNever) {
          // `a || m`, with m the committed value.
          v = a == Phantom::True || a == Phantom::Unknown ? a : Phantom::Equal;
          stable = stable && v == Phantom::Equal;
        } else {
          v = a == Phantom::True || a == Phantom::Equal ? a : Phantom::Unknown;
          stable = stable && a == Phantom::Equal;
        }
        break;
      case Node::Kind::Before: stable = false; break;
      case Node::Kind::Holds:
        v = a == Phantom::False || a == Phantom::Equal ? a : Phantom::Unknown;
        stable = stable && a == Phantom::Equal;
        break;
      case Node::Kind::Forall:
      case Node::Kind::Exists:
        AHB_UNREACHABLE("quantifiers are expanded at compile time");
    }
    cls[static_cast<std::size_t>(i)] = v;
  }
  return stable;
}

/// Decides the stability of every instance range, then of the top
/// range with each expansion's value taken as Equal: every operator
/// state survives and the root is Equal.
void classify_units(Compiled& compiled) {
  const std::vector<Instr>& instrs = compiled.instrs;
  std::vector<Phantom> cls(instrs.size(), Phantom::Unknown);
  const auto stable_unit = [&cls](int root, bool stable) {
    return stable && cls[static_cast<std::size_t>(root)] == Phantom::Equal;
  };
  for (Expansion& expansion : compiled.expansions) {
    for (Expansion::Range& range : expansion.instances) {
      const bool stable = classify(instrs, range.begin, range.root + 1, cls);
      range.stable = stable_unit(range.root, stable);
    }
  }
  bool stable = true;
  int begin = 0;
  for (const Expansion& expansion : compiled.expansions) {
    stable = classify(instrs, begin, expansion.instances.front().begin, cls) &&
             stable;
    cls[static_cast<std::size_t>(expansion.result())] = Phantom::Equal;
    begin = expansion.result() + 1;
  }
  const int end = static_cast<int>(instrs.size());
  stable = classify(instrs, begin, end, cls) && stable;
  compiled.top_stable = stable_unit(end - 1, stable);
}

bool time_cmp(Time lhs, Cmp cmp, Time rhs) {
  switch (cmp) {
    case Cmp::Le: return lhs <= rhs;
    case Cmp::Lt: return lhs < rhs;
    case Cmp::Gt: return lhs > rhs;
    case Cmp::Ge: return lhs >= rhs;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// BindParams.

Time BindParams::param(std::string_view name) const {
  if (name == "tmin") return timing.tmin;
  if (name == "tmax") return timing.tmax;
  if (name == "r1_slack") return proto::r1_detection_slack(timing, variant);
  if (name == "r2_window") {
    return proto::r2_explanation_window(timing, variant, fixed_bounds);
  }
  if (name == "r3_slack") {
    return proto::r3_detection_slack(timing, variant, fixed_bounds);
  }
  if (name == "r1_bound") return proto::r1_bound(timing, fixed_bounds);
  if (name == "suspicion_min_round") return timing.tmin;
  if (name == "suspicion_slack") {
    return proto::suspicion_detection_bound(timing, suspect_after_misses);
  }
  AHB_UNREACHABLE("unknown bound parameter");
}

// ---------------------------------------------------------------------------
// FluentTracker.

FluentTracker::FluentTracker(proto::Variant variant, int participants)
    : participants_(participants) {
  AHB_EXPECTS(participants >= 0);
  const auto slots = static_cast<std::size_t>(participants) + 1;
  stopped_.assign(slots, 0);
  const bool joins = proto::variant_joins(variant);
  member_.assign(slots, joins ? 0 : 1);
  member_[0] = 0;
  live_count_ = participants;
  member_count_ = joins ? 0 : participants;
}

bool FluentTracker::stopped(int node) const {
  AHB_EXPECTS(node >= 1 && node <= participants_);
  return stopped_[static_cast<std::size_t>(node)] != 0;
}

bool FluentTracker::member(int node) const {
  AHB_EXPECTS(node >= 1 && node <= participants_);
  return member_[static_cast<std::size_t>(node)] != 0;
}

std::uint8_t FluentTracker::apply(const hb::ProtocolEvent& event) {
  const int node = event.node;
  const bool known = node >= 1 && node <= participants_;
  const auto idx = static_cast<std::size_t>(node);
  switch (event.kind) {
    case PKind::CoordinatorReceivedBeat:
      if (known && !member_[idx]) {
        member_[idx] = 1;
        ++member_count_;
        return kMemberChanged |
               (member_count_ == 1 ? kAnyRegisteredChanged : 0);
      }
      break;
    case PKind::CoordinatorReceivedLeave:
      if (known && member_[idx]) {
        member_[idx] = 0;
        --member_count_;
        return kMemberChanged |
               (member_count_ == 0 ? kAnyRegisteredChanged : 0);
      }
      break;
    case PKind::CoordinatorInactivated:
    case PKind::CoordinatorCrashed:
      if (coordinator_live_) {
        coordinator_live_ = false;
        return kCoordChanged;
      }
      break;
    case PKind::ParticipantInactivated:
    case PKind::ParticipantCrashed:
    case PKind::ParticipantLeft:
      if (known && !stopped_[idx]) {
        stopped_[idx] = 1;
        --live_count_;
        return kStoppedChanged | (live_count_ == 0 ? kAllStoppedChanged : 0);
      }
      break;
    case PKind::ParticipantRejoined:
      if (known && stopped_[idx]) {
        stopped_[idx] = 0;
        ++live_count_;
        return kStoppedChanged | (live_count_ == 1 ? kAllStoppedChanged : 0);
      }
      break;
    default:
      break;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// compile.

CompileResult compile(const Node& formula, const BindParams& params) {
  CompileResult result;
  if (params.participants < 0) {
    result.error = "participants must be non-negative";
    return result;
  }
  Flattener flattener{params, Compiled{}, {}, {}};
  flattener.out.participants = params.participants;
  int root = -1;
  if (!flattener.flatten(formula, &root, 0)) {
    result.error =
        flattener.error.empty() ? "compile error" : flattener.error;
    return result;
  }
  AHB_ASSERT(root == static_cast<int>(flattener.out.instrs.size()) - 1);
  if (flattener.out.uses_fluents) {
    flattener.out.protocol_mask |= fluent_driver_mask();
  }
  result.compiled = std::move(flattener.out);
  index_units(result.compiled);
  classify_units(result.compiled);
  return result;
}

// ---------------------------------------------------------------------------
// FormulaMonitor.

namespace {

/// The wake time of a unit that must be evaluated at every pass.
constexpr Time kUnsettled = std::numeric_limits<Time>::min();

/// The first time after `now` at which `(T - t) cmp bound` changes
/// value, or kNever. Each comparison is monotone in T and changes at
/// most once: where T - t reaches bound (Lt, Ge) or bound + 1 (Le, Gt).
Time next_flip(Time t, Cmp cmp, Time bound, Time now) {
  Time at = 0;
  const Time step = cmp == Cmp::Le || cmp == Cmp::Gt ? 1 : 0;
  if (__builtin_add_overflow(t, bound + step, &at)) return kNever;
  return at > now ? at : kNever;
}

}  // namespace

FormulaMonitor::FormulaMonitor(std::shared_ptr<const Compiled> program,
                               const BindParams& params, std::string name,
                               int requirement)
    : program_(std::move(program)),
      tracker_(params.variant, params.participants),
      protocol_mask_(program_->protocol_mask),
      channel_mask_(program_->channel_mask),
      name_(std::move(name)),
      requirement_(requirement) {
  const Compiled& compiled = *program_;
  const std::vector<Instr>& instrs = compiled.instrs;
  AHB_EXPECTS(!instrs.empty());
  state_.resize(instrs.size());
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    state_[i].t = kNever;
    state_[i].b = instrs[i].op == Node::Kind::Historically ? 1 : 0;
  }
  scratch_.assign(instrs.size(), 0);
  committed_.assign(instrs.size(), 0);

  std::size_t total = 0;
  for (const Expansion& expansion : compiled.expansions) {
    total += expansion.instances.size();
  }
  instances_.reserve(total);
  due_.reserve(total);
  groups_.reserve(compiled.expansions.size());
  for (const Expansion& expansion : compiled.expansions) {
    Group group;
    group.first = expansion.instances.front().begin;
    group.result = expansion.result();
    group.inst_begin = static_cast<int>(instances_.size());
    group.conj = expansion.conj;
    group.protocol_bits = expansion.protocol_bits;
    group.channel_bits = expansion.channel_bits;
    group.fluent_bits = expansion.fluent_bits;
    for (const Expansion::Range& range : expansion.instances) {
      instances_.push_back({range.begin, range.root,
                            static_cast<int>(groups_.size()), range.stable});
    }
    group.inst_end = static_cast<int>(instances_.size());
    // Consistent with committed_ before the initial position: every
    // instance false.
    group.committed = group.conj ? group.inst_end - group.inst_begin : 0;
    group.pass = group.committed;
    groups_.push_back(group);
  }

  // Commit the initial position: time 0, no event, `init` true, every
  // unit evaluated (top_due_ starts true).
  ++pass_id_;
  for (int k = 0; k < static_cast<int>(instances_.size()); ++k) make_due(k);
  observe(0, eval<true>({0, nullptr, nullptr, /*init=*/true}));
  due_.clear();
}

// Inlined into both callers (the top range's runs, the instances): out
// of line, the call costs small formulas ~10% of their per-event time.
template <bool kCommit>
[[gnu::always_inline]] inline bool FormulaMonitor::eval_range(
    int begin, int end, const Pass& pass, bool stable, Time& wake) {
  const Instr* instrs = program_->instrs.data();
  State* state = state_.data();
  std::uint8_t* vals = scratch_.data();
  std::uint8_t* committed = committed_.data();
  const FluentTracker& tracker = tracker_;
  const Time now = pass.now;
  const Time last_commit = last_commit_;
  const bool init = pass.init;
  // Bounded Once/Before: the last witness time. The range may have been
  // skipped since its operand was last true; skipping implies the
  // operand stayed true, so `st.b` records "true at the last committed
  // position", whose time is then the witness (trap 1).
  const auto witness = [last_commit](const State& st) {
    return st.b != 0 ? last_commit : st.t;
  };
  const auto commit_witness = [now](State& st, std::uint8_t operand, Time t) {
    st.t = operand != 0 ? now : t;
    st.b = operand;
  };
  // Committing passes also lower `wake`. Connectives and fluents are
  // functions of their inputs, and Historically, Since and unbounded
  // Once reach their fixed point in one step; the cases that lower it
  // below are the only ways a range can change at a later position
  // without events. A stable range is never unsettled: compile()
  // proved that such a change reaches neither its root nor its
  // operator state.
  const auto unsettle = [&wake, stable] {
    if (!stable) wake = kUnsettled;
  };
  const auto flip = [&wake, now](Time t, const Instr& ins) {
    wake = std::min(wake, next_flip(t, ins.cmp, ins.bound, now));
  };
  bool v = false;
  for (int i = begin; i < end; ++i) {
    const Instr& ins = instrs[i];
    State& st = state[i];
    switch (ins.op) {
      case Node::Kind::True: v = true; break;
      case Node::Kind::False: v = false; break;
      case Node::Kind::Init:
        v = init;
        if constexpr (kCommit) {
          if (v) unsettle();  // false at every later position
        }
        break;
      case Node::Kind::Event:
        v = false;
        if (pass.pe != nullptr && ins.protocol_bits != 0) {
          v = (protocol_bit(pass.pe->kind) & ins.protocol_bits) != 0 &&
              (ins.node < 0 || pass.pe->node == ins.node);
        } else if (pass.ce != nullptr && ins.channel_bits != 0) {
          v = (channel_bit(pass.ce->kind) & ins.channel_bits) != 0;
        }
        if constexpr (kCommit) {
          if (v) unsettle();  // false at an event-free position
        }
        break;
      case Node::Kind::Fluent:
        switch (ins.fluent) {
          case Fluent::CoordLive: v = tracker.coordinator_live(); break;
          case Fluent::CoordStopped: v = !tracker.coordinator_live(); break;
          case Fluent::Stopped: v = tracker.stopped(ins.node); break;
          case Fluent::Alive: v = !tracker.stopped(ins.node); break;
          case Fluent::Member: v = tracker.member(ins.node); break;
          case Fluent::AllStopped: v = tracker.all_stopped(); break;
          case Fluent::AnyRegistered: v = tracker.any_registered(); break;
        }
        break;
      case Node::Kind::Not: v = !vals[ins.a]; break;
      case Node::Kind::And: v = vals[ins.a] && vals[ins.b]; break;
      case Node::Kind::Or: v = vals[ins.a] || vals[ins.b]; break;
      case Node::Kind::Implies: v = !vals[ins.a] || vals[ins.b]; break;
      case Node::Kind::Iff: v = vals[ins.a] == vals[ins.b]; break;
      case Node::Kind::Previously:
        v = st.b != 0;
        if constexpr (kCommit) {
          st.b = vals[ins.a];
          if (v != (st.b != 0)) unsettle();  // next value: st.b
        }
        break;
      case Node::Kind::Historically:
        v = st.b != 0 && vals[ins.a] != 0;
        if constexpr (kCommit) st.b = v ? 1 : 0;
        break;
      case Node::Kind::Since:
        v = vals[ins.b] != 0 || (vals[ins.a] != 0 && st.b != 0);
        if constexpr (kCommit) st.b = v ? 1 : 0;
        break;
      case Node::Kind::Once:
        if (ins.bound == kNever) {
          v = vals[ins.a] != 0 || st.b != 0;
          if constexpr (kCommit) st.b = v ? 1 : 0;
        } else {
          const Time t = witness(st);
          v = vals[ins.a] != 0 ||
              (t != kNever && time_cmp(now - t, ins.cmp, ins.bound));
          if constexpr (kCommit) {
            commit_witness(st, vals[ins.a], t);
            // Operand false: the value is a function of time alone.
            if (vals[ins.a] == 0 && t != kNever) flip(t, ins);
          }
        }
        break;
      case Node::Kind::Before: {
        // Position-strict: the witness is at an earlier position (its
        // timestamp may equal `now`).
        const Time t = witness(st);
        v = t != kNever && time_cmp(now - t, ins.cmp, ins.bound);
        if constexpr (kCommit) {
          commit_witness(st, vals[ins.a], t);
          if (vals[ins.a] != 0) {
            // Trap 2: the value is the gap to the previous position,
            // which every position sets anew.
            unsettle();
          } else if (t != kNever) {
            flip(t, ins);
          }
        }
        break;
      }
      case Node::Kind::Holds: {
        // Anchored continuous truth: the anchor is the committed start
        // of the current true stretch of the operand.
        const Time anchor = st.t != kNever ? st.t : now;
        v = vals[ins.a] != 0 && time_cmp(now - anchor, ins.cmp, ins.bound);
        if constexpr (kCommit) {
          st.t = vals[ins.a] != 0 ? anchor : kNever;
          if (st.t != kNever) flip(st.t, ins);
        }
        break;
      }
      case Node::Kind::Forall:
      case Node::Kind::Exists:
        AHB_UNREACHABLE("quantifiers are expanded at compile time");
    }
    vals[i] = v ? 1 : 0;
    if constexpr (kCommit) committed[i] = vals[i];
  }
  return v;
}

template <bool kCommit>
void FormulaMonitor::eval_due(const Pass& pass) {
  for (const int k : due_) {
    Instance& inst = instances_[static_cast<std::size_t>(k)];
    Group& group = groups_[static_cast<std::size_t>(inst.group)];
    const bool before = committed_[static_cast<std::size_t>(inst.root)] != 0;
    Time wake = kNever;
    const bool after = eval_range<kCommit>(inst.begin, inst.root + 1, pass,
                                           inst.stable, wake);
    group.pass += static_cast<int>(after != group.conj) -
                  static_cast<int>(before != group.conj);
    ++instances_evaluated_;
    if constexpr (kCommit) {
      inst.wake = wake;
      requeue(k);
    }
  }
}

template <bool kCommit>
bool FormulaMonitor::eval(const Pass& pass) {
  bool top = top_due_;
  if (!due_.empty()) {
    eval_due<kCommit>(pass);
    for (const Group& group : groups_) {
      top = top || (group.pass > 0) != (group.committed > 0);
    }
  }
  bool root = committed_.back() != 0;
  if (top) {
    // The top range: the runs between the groups, each followed by the
    // value of the group it precedes.
    const bool stable = program_->top_stable;
    Time wake = kNever;
    int begin = 0;
    for (const Group& group : groups_) {
      eval_range<kCommit>(begin, group.first, pass, stable, wake);
      const auto result = static_cast<std::size_t>(group.result);
      scratch_[result] = (group.pass > 0) != group.conj ? 1 : 0;
      if constexpr (kCommit) committed_[result] = scratch_[result];
      begin = group.result + 1;
    }
    eval_range<kCommit>(begin, static_cast<int>(scratch_.size()), pass, stable,
                        wake);
    if constexpr (kCommit) top_wake_ = wake;
    root = scratch_.back() != 0;
  }
  if (top || !due_.empty()) ++passes_evaluated_;
  if (!due_.empty()) {
    for (Group& group : groups_) {
      if constexpr (kCommit) {
        group.committed = group.pass;
      } else {
        group.pass = group.committed;
      }
    }
  }
  if constexpr (kCommit) last_commit_ = pass.now;
  return root;
}

void FormulaMonitor::make_due(int k) {
  Instance& inst = instances_[static_cast<std::size_t>(k)];
  if (inst.queued == pass_id_) return;
  inst.queued = pass_id_;
  due_.push_back(k);
}

void FormulaMonitor::collect_due(Time now) {
  ++pass_id_;
  // kUnsettled is below every time.
  top_due_ = top_wake_ <= now;
  if (now < last_commit_) {
    // Settling assumes time never runs back past the last commit.
    top_due_ = true;
    for (int k = 0; k < static_cast<int>(instances_.size()); ++k) make_due(k);
  }
  for (const int k : unsettled_) make_due(k);
  unsettled_.clear();
  while (!flips_.empty() && flips_.top().first <= now) {
    const auto [at, k] = flips_.top();
    flips_.pop();
    Instance& inst = instances_[static_cast<std::size_t>(k)];
    if (inst.scheduled != at) continue;  // superseded entry
    inst.scheduled = kNever;
    if (inst.wake == at) make_due(k);
  }
}

void FormulaMonitor::wake(const hb::ProtocolEvent* pe,
                          const sim::ChannelEvent* ce, std::uint8_t changed) {
  const std::uint32_t pbit = pe != nullptr ? protocol_bit(pe->kind) : 0;
  const std::uint32_t cbit = ce != nullptr ? channel_bit(ce->kind) : 0;
  const Compiled& program = *program_;
  if ((program.top_protocol_bits & pbit) != 0 ||
      (program.top_channel_bits & cbit) != 0 ||
      (program.top_fluent_bits & changed) != 0) {
    top_due_ = true;
  }
  for (const Group& group : groups_) {
    if ((group.protocol_bits & pbit) != 0 || (group.channel_bits & cbit) != 0 ||
        (group.fluent_bits & changed) != 0) {
      for (int k = group.inst_begin; k < group.inst_end; ++k) make_due(k);
    }
  }
  if (pe == nullptr) return;
  const std::vector<Watch>& watches = program.watches;
  auto watch = std::lower_bound(
      watches.begin(), watches.end(), pe->node,
      [](const Watch& w, int node) { return w.node < node; });
  for (; watch != watches.end() && watch->node == pe->node; ++watch) {
    if ((watch->protocol_bits & pbit) != 0 ||
        (watch->fluent_bits & changed) != 0) {
      make_due(watch->instance);
    }
  }
}

void FormulaMonitor::requeue(int k) {
  Instance& inst = instances_[static_cast<std::size_t>(k)];
  if (inst.wake == kUnsettled) {
    unsettled_.push_back(k);
  } else if (inst.wake != kNever && inst.wake != inst.scheduled) {
    // One entry per flip time: an instance re-woken before its flip
    // keeps the entry it has.
    inst.scheduled = inst.wake;
    flips_.emplace(inst.wake, k);
  }
}

bool FormulaMonitor::value_at(std::size_t i) const {
  // Joins are never evaluated: fold the committed instances they join.
  // An instance's join directly follows its range (Expansion).
  for (const Group& group : groups_) {
    for (int k = group.inst_begin + 1; k < group.inst_end; ++k) {
      const int root = instances_[static_cast<std::size_t>(k)].root;
      if (static_cast<std::size_t>(root) + 1 != i) continue;
      bool absorbed = false;
      for (int j = group.inst_begin; j <= k; ++j) {
        const auto root = static_cast<std::size_t>(
            instances_[static_cast<std::size_t>(j)].root);
        absorbed = absorbed || (committed_[root] != 0) != group.conj;
      }
      return absorbed != group.conj;
    }
  }
  return committed_[i] != 0;
}

void FormulaMonitor::observe(Time now, bool root_value) {
  if (last_value_ && !root_value) {
    ++violations_total_;
    if (violations_.size() < max_recorded_) {
      violations_.push_back(Violation{requirement_, 0, now, now,
                                      "formula '" + name_ + "' violated"});
    }
  }
  last_value_ = root_value;
}

void FormulaMonitor::handle(Time at, const hb::ProtocolEvent* pe,
                            const sim::ChannelEvent* ce) {
  ++events_seen_;
  collect_due(at);
  // Check pass: the instant `at` has been reached but the event has
  // not happened yet — deadlines that expired strictly before the
  // event are caught with pre-event state. With nothing due it would
  // evaluate nothing and observe the committed root, which only a
  // finish() since the last commit can have left unobserved.
  if (!due_.empty() || top_due_ || last_value_ != (committed_.back() != 0)) {
    observe(at, eval<false>({at, nullptr, nullptr, /*init=*/false}));
  }
  const std::uint8_t changed = pe != nullptr ? tracker_.apply(*pe) : 0;
  wake(pe, ce, changed);
  if (due_.empty() && !top_due_) {
    // Nothing was due at the check pass either, so the committed root
    // is the last value observed: the step pass would only move the
    // position on.
    last_commit_ = at;
    return;
  }
  // Step pass: the event's own position, committed.
  observe(at, eval<true>({at, pe, ce, /*init=*/false}));
  due_.clear();
}

void FormulaMonitor::on_protocol_event(const hb::ProtocolEvent& event) {
  handle(event.at, &event, nullptr);
}

void FormulaMonitor::on_channel_event(const sim::ChannelEvent& event) {
  handle(event.at, nullptr, &event);
}

void FormulaMonitor::finish(Time horizon) {
  collect_due(horizon);
  observe(horizon, eval<false>({horizon, nullptr, nullptr, /*init=*/false}));
  // Nothing was committed: file the due instances back unchanged.
  for (const int k : due_) requeue(k);
  due_.clear();
}

MonitorResult make_monitor(const FormulaSpec& spec, const BindParams& params) {
  MonitorResult result;
  ParseResult parsed = parse(spec.text);
  if (!parsed.ok()) {
    result.error = "parse error in formula '" + spec.name + "' at offset " +
                   std::to_string(parsed.error_at) + ": " + parsed.error;
    return result;
  }
  CompileResult compiled = compile(*parsed.formula, params);
  if (!compiled.ok()) {
    result.error =
        "compile error in formula '" + spec.name + "': " + compiled.error;
    return result;
  }
  result.monitor = std::make_unique<FormulaMonitor>(
      std::make_shared<const Compiled>(std::move(compiled.compiled)), params,
      spec.name, spec.requirement);
  return result;
}

}  // namespace ahb::rv::pltl
