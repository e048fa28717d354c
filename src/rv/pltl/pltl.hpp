// Past-time LTL over heartbeat protocol traces: the AST, a
// recursive-descent parser, a printer, and structural equality.
//
// A formula states a safety requirement that must hold at every
// position of a timed event trace (and at the mission horizon). Atoms
// name protocol/channel events ("beat", "lost", "c_recv_beat(x)") or
// derived cluster fluents ("coord_live", "stopped(x)"); the past
// operators look backwards only, so a formula compiles to a streaming
// monitor with one state record per temporal subformula (eval.hpp) or
// lowers to observer automata for the mc explorer (models/
// formula_check.hpp).
//
// Grammar (lowest precedence first; comments run `#` to end of line):
//
//   formula  := quantified
//   quantified := ("forall" | "exists") ident ":" quantified | iff
//   iff      := impl ("<->" impl)*                        (left)
//   impl     := or "->" impl | or                         (right)
//   or       := and ("||" and | "or" and)*
//   and      := since ("&&" since | "and" since)*
//   since    := unary ("since" unary)*                    (left)
//   unary    := "!" unary | "not" unary
//             | "previously" unary | "historically" unary
//             | "once" bound? unary | "within" bound unary
//             | "before" bound unary | "holds" bound unary
//             | primary
//   primary  := "(" formula ")" | "true" | "false" | "init"
//             | ident ( "(" arg ")" )?
//   bound    := "[" cmp bexpr "]"   cmp in {"<=","<"} ("holds": {">",">="})
//   bexpr    := bterm (("+"|"-") bterm)* ; bterm := bfact ("*" bfact)*
//   bfact    := integer | param | "(" bexpr ")"
//   arg      := ident | integer
//
// `within` is `once` with a mandatory bound ("some time in the last k
// ticks"). Bound expressions are integer arithmetic over the named
// timing parameters resolved at compile time (eval.hpp): tmin, tmax,
// r1_slack, r2_window, r3_slack, r1_bound, suspicion_min_round,
// suspicion_slack.
//
// Parsing never throws: errors come back in ParseResult with a byte
// offset and message. Nesting is capped at kMaxDepth, so every
// recursion over a parsed tree is bounded.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace ahb::rv::pltl {

/// The nesting-depth cap. parse() rejects input with more than this
/// many nested parentheses, prefix operators, `->` or quantifiers, or
/// whose formula or bound-expression tree is taller (a leaf has height
/// 0). print(), equal(), clone(), compile() and the recursive
/// destructors therefore recurse at most this deep on a parsed tree;
/// compile() rejects a hand-built tree that is taller.
inline constexpr int kMaxDepth = 256;

// ---------------------------------------------------------------------------
// Bound expressions: integer arithmetic over named timing parameters.

struct BoundExpr {
  enum class Kind { Num, Param, Add, Sub, Mul };
  Kind kind = Kind::Num;
  std::int64_t num = 0;      ///< Kind::Num
  std::string param;         ///< Kind::Param
  std::unique_ptr<BoundExpr> lhs, rhs;
};

/// Comparison attached to a bounded operator: once/within/before use
/// Le/Lt ("no older than k"), holds uses Gt/Ge ("for more than k").
enum class Cmp { Le, Lt, Gt, Ge };

struct Bound {
  Cmp cmp = Cmp::Le;
  std::unique_ptr<BoundExpr> expr;
};

// ---------------------------------------------------------------------------
// Formula AST.

struct Node {
  enum class Kind {
    True,
    False,
    Init,          ///< true exactly at trace position 0 (time 0, pre-events)
    Event,         ///< named protocol/channel event atom, optional arg
    Fluent,        ///< derived cluster-state predicate, optional arg
    Not,
    And,
    Or,
    Implies,
    Iff,
    Previously,    ///< value of the operand at the previous position
    Once,          ///< operand held at some past-or-present position
    Historically,  ///< operand held at every position so far
    Since,         ///< lhs since rhs
    Before,        ///< operand held at a strictly earlier position, bounded
    Holds,         ///< operand has held continuously for {cmp} bound ticks
    Forall,        ///< forall var: body — conjunction over participant ids
    Exists,        ///< exists var: body — disjunction over participant ids
  };

  enum class Arg { None, Var, Num };

  Kind kind = Kind::True;
  std::unique_ptr<Node> lhs, rhs;  ///< rhs only for binary connectives
  std::string name;                ///< atom name / quantifier variable
  Arg arg = Arg::None;             ///< atom argument form
  std::string arg_var;             ///< Arg::Var
  std::int64_t arg_num = 0;        ///< Arg::Num
  std::unique_ptr<Bound> bound;    ///< Once/Before/Holds
};

using NodePtr = std::unique_ptr<Node>;

struct ParseResult {
  NodePtr formula;          ///< null on error
  std::string error;        ///< empty on success
  std::size_t error_at = 0; ///< byte offset of the error in the input
  bool ok() const { return formula != nullptr; }
};

/// Parse a formula. Never throws; returns an error message and offset
/// on malformed input.
ParseResult parse(std::string_view text);

/// Render a formula back to concrete syntax. The output reparses to a
/// structurally equal AST: parse(print(f)).formula equals f.
std::string print(const Node& formula);

/// Structural equality (names, args, bounds, operator kinds).
bool equal(const Node& a, const Node& b);

/// Deep copy.
NodePtr clone(const Node& formula);

/// True if `name` is a recognised bound parameter (tmin, tmax, ...).
bool is_bound_param(std::string_view name);

}  // namespace ahb::rv::pltl
