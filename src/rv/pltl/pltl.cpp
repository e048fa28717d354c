#include "rv/pltl/pltl.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <sstream>

namespace ahb::rv::pltl {
namespace {

constexpr std::array<std::string_view, 8> kBoundParams = {
    "tmin",         "tmax",     "r1_slack",           "r2_window",
    "r3_slack",     "r1_bound", "suspicion_min_round", "suspicion_slack",
};

// ---------------------------------------------------------------------------
// Lexer.

enum class Tok {
  End,
  Ident,     // bare word, including keywords — classified by the parser
  Int,
  LParen,
  RParen,
  LBracket,
  RBracket,
  Colon,
  Bang,       // !
  AndAnd,     // &&
  OrOr,       // ||
  Arrow,      // ->
  DArrow,     // <->
  Le,         // <=
  Lt,         // <
  Ge,         // >=
  Gt,         // >
  Plus,
  Minus,
  Star,
  Error,
};

struct Lexer {
  std::string_view text;
  std::size_t pos = 0;

  Tok tok = Tok::End;
  std::size_t tok_at = 0;       ///< byte offset of the current token
  std::string_view tok_text;    ///< Ident spelling
  std::int64_t tok_num = 0;     ///< Int value
  std::string error;

  explicit Lexer(std::string_view t) : text(t) { next(); }

  void skip_space() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '#') {  // comment to end of line
        pos = std::min(text.find('\n', pos), text.size());
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos;
      } else {
        break;
      }
    }
  }

  void next() {
    skip_space();
    tok_at = pos;
    if (pos >= text.size()) {
      tok = Tok::End;
      return;
    }
    const char c = text[pos];
    auto two = [&](char second) {
      return pos + 1 < text.size() && text[pos + 1] == second;
    };
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos;
      while (pos < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[pos])) ||
              text[pos] == '_')) {
        ++pos;
      }
      tok = Tok::Ident;
      tok_text = text.substr(start, pos - start);
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::int64_t value = 0;
      std::size_t start = pos;
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos]))) {
        value = value * 10 + (text[pos] - '0');
        if (value > (std::int64_t{1} << 56)) {
          tok = Tok::Error;
          error = "integer literal too large";
          return;
        }
        ++pos;
      }
      (void)start;
      tok = Tok::Int;
      tok_num = value;
      return;
    }
    switch (c) {
      case '(': ++pos; tok = Tok::LParen; return;
      case ')': ++pos; tok = Tok::RParen; return;
      case '[': ++pos; tok = Tok::LBracket; return;
      case ']': ++pos; tok = Tok::RBracket; return;
      case ':': ++pos; tok = Tok::Colon; return;
      case '!': ++pos; tok = Tok::Bang; return;
      case '+': ++pos; tok = Tok::Plus; return;
      case '*': ++pos; tok = Tok::Star; return;
      case '&':
        if (two('&')) { pos += 2; tok = Tok::AndAnd; return; }
        break;
      case '|':
        if (two('|')) { pos += 2; tok = Tok::OrOr; return; }
        break;
      case '-':
        if (two('>')) { pos += 2; tok = Tok::Arrow; return; }
        ++pos; tok = Tok::Minus; return;
      case '<':
        if (two('-') && pos + 2 < text.size() && text[pos + 2] == '>') {
          pos += 3; tok = Tok::DArrow; return;
        }
        if (two('=')) { pos += 2; tok = Tok::Le; return; }
        ++pos; tok = Tok::Lt; return;
      case '>':
        if (two('=')) { pos += 2; tok = Tok::Ge; return; }
        ++pos; tok = Tok::Gt; return;
      default: break;
    }
    tok = Tok::Error;
    error = std::string{"unexpected character '"} + c + "'";
  }

  bool is_word(std::string_view word) const {
    return tok == Tok::Ident && tok_text == word;
  }
};

// ---------------------------------------------------------------------------
// Parser.

struct Parser {
  Lexer lex;
  std::string error;
  std::size_t error_at = 0;
  /// Nesting constructs (parentheses, prefix operators, `->`,
  /// quantifiers) open around the current token.
  int depth = 0;
  /// Height of the tree the last successful parse_* call returned (a
  /// leaf is 0); binary chains grow it without recursing.
  int height = 0;

  explicit Parser(std::string_view text) : lex(text) {}

  /// One open nesting construct for the scope of a recursive
  /// production; `ok` is false (and the error set) past kMaxDepth.
  struct Nest {
    Parser& parser;
    bool ok;
    explicit Nest(Parser& p) : parser(p), ok(++p.depth <= kMaxDepth) {
      if (!ok) p.too_deep();
    }
    ~Nest() { --parser.depth; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;
  };

  std::nullptr_t too_deep() {
    fail("formula nested deeper than " + std::to_string(kMaxDepth) +
         " levels");
    return nullptr;
  }

  /// Records `h` as the height of `node`; fails past kMaxDepth.
  template <typename T>
  std::unique_ptr<T> grown(std::unique_ptr<T> node, int h) {
    if (h > kMaxDepth) return too_deep();
    height = h;
    return node;
  }

  NodePtr fail(std::string message) {
    if (error.empty()) {
      error = std::move(message);
      error_at = lex.tok_at;
      if (lex.tok == Tok::Error && !lex.error.empty()) {
        error += ": " + lex.error;
      }
    }
    return nullptr;
  }

  bool eat_word(std::string_view word) {
    if (!lex.is_word(word)) return false;
    lex.next();
    return true;
  }

  bool eat(Tok t) {
    if (lex.tok != t) return false;
    lex.next();
    return true;
  }

  static NodePtr make(Node::Kind kind, NodePtr lhs = nullptr,
                      NodePtr rhs = nullptr) {
    auto node = std::make_unique<Node>();
    node->kind = kind;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
  }

  /// A unary node over the operand the last parse returned.
  NodePtr unary(Node::Kind kind, NodePtr operand) {
    return grown(make(kind, std::move(operand)), height + 1);
  }

  /// A binary node over `lhs` (of height `lhs_height`) and the operand
  /// the last parse returned.
  NodePtr binary(Node::Kind kind, NodePtr lhs, int lhs_height, NodePtr rhs) {
    const int h = std::max(lhs_height, height) + 1;
    return grown(make(kind, std::move(lhs), std::move(rhs)), h);
  }

  NodePtr parse_formula() { return parse_quantified(); }

  NodePtr parse_quantified() {
    const bool forall = lex.is_word("forall");
    const bool exists = lex.is_word("exists");
    if (forall || exists) {
      lex.next();
      if (lex.tok != Tok::Ident) return fail("expected quantifier variable");
      std::string var{lex.tok_text};
      if (is_bound_param(var) || var == "true" || var == "false" ||
          var == "init") {
        return fail("'" + var + "' cannot be a quantifier variable");
      }
      lex.next();
      if (!eat(Tok::Colon)) return fail("expected ':' after quantifier variable");
      const Nest nest{*this};
      if (!nest.ok) return nullptr;
      NodePtr body = parse_quantified();
      if (!body) return nullptr;
      NodePtr node = unary(forall ? Node::Kind::Forall : Node::Kind::Exists,
                           std::move(body));
      if (node) node->name = std::move(var);
      return node;
    }
    return parse_iff();
  }

  NodePtr parse_iff() {
    NodePtr lhs = parse_impl();
    while (lhs && eat(Tok::DArrow)) {
      const int lhs_height = height;
      NodePtr rhs = parse_impl();
      if (!rhs) return nullptr;
      lhs = binary(Node::Kind::Iff, std::move(lhs), lhs_height, std::move(rhs));
    }
    return lhs;
  }

  NodePtr parse_impl() {
    NodePtr lhs = parse_or();
    if (!lhs) return nullptr;
    if (eat(Tok::Arrow)) {
      const int lhs_height = height;
      const Nest nest{*this};
      if (!nest.ok) return nullptr;
      NodePtr rhs = parse_impl();  // right-associative
      if (!rhs) return nullptr;
      return binary(Node::Kind::Implies, std::move(lhs), lhs_height,
                    std::move(rhs));
    }
    return lhs;
  }

  NodePtr parse_or() {
    NodePtr lhs = parse_and();
    while (lhs && (lex.tok == Tok::OrOr || lex.is_word("or"))) {
      lex.next();
      const int lhs_height = height;
      NodePtr rhs = parse_and();
      if (!rhs) return nullptr;
      lhs = binary(Node::Kind::Or, std::move(lhs), lhs_height, std::move(rhs));
    }
    return lhs;
  }

  NodePtr parse_and() {
    NodePtr lhs = parse_since();
    while (lhs && (lex.tok == Tok::AndAnd || lex.is_word("and"))) {
      lex.next();
      const int lhs_height = height;
      NodePtr rhs = parse_since();
      if (!rhs) return nullptr;
      lhs = binary(Node::Kind::And, std::move(lhs), lhs_height, std::move(rhs));
    }
    return lhs;
  }

  NodePtr parse_since() {
    NodePtr lhs = parse_unary();
    while (lhs && eat_word("since")) {
      const int lhs_height = height;
      NodePtr rhs = parse_unary();
      if (!rhs) return nullptr;
      lhs = binary(Node::Kind::Since, std::move(lhs), lhs_height,
                   std::move(rhs));
    }
    return lhs;
  }

  std::unique_ptr<Bound> parse_bound(bool lower_bound) {
    // lower_bound: holds[> k] / holds[>= k]; otherwise [<= k] / [< k].
    if (!eat(Tok::LBracket)) {
      fail(lower_bound ? "expected '[> ...]' bound"
                       : "expected '[<= ...]' bound");
      return nullptr;
    }
    auto bound = std::make_unique<Bound>();
    switch (lex.tok) {
      case Tok::Le: bound->cmp = Cmp::Le; break;
      case Tok::Lt: bound->cmp = Cmp::Lt; break;
      case Tok::Gt: bound->cmp = Cmp::Gt; break;
      case Tok::Ge: bound->cmp = Cmp::Ge; break;
      default:
        fail("expected comparison in bound");
        return nullptr;
    }
    const bool is_lower = bound->cmp == Cmp::Gt || bound->cmp == Cmp::Ge;
    if (is_lower != lower_bound) {
      fail(lower_bound ? "'holds' takes a lower bound ('>' or '>=')"
                       : "this operator takes an upper bound ('<=' or '<')");
      return nullptr;
    }
    lex.next();
    bound->expr = parse_bexpr();
    if (!bound->expr) return nullptr;
    if (!eat(Tok::RBracket)) {
      fail("expected ']' after bound expression");
      return nullptr;
    }
    return bound;
  }

  /// A binary bound expression over `lhs` (of height `lhs_height`)
  /// and the operand the last parse returned.
  std::unique_ptr<BoundExpr> bexpr_binary(BoundExpr::Kind kind,
                                          std::unique_ptr<BoundExpr> lhs,
                                          int lhs_height,
                                          std::unique_ptr<BoundExpr> rhs) {
    auto node = std::make_unique<BoundExpr>();
    node->kind = kind;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return grown(std::move(node), std::max(lhs_height, height) + 1);
  }

  std::unique_ptr<BoundExpr> parse_bexpr() {
    auto lhs = parse_bterm();
    while (lhs && (lex.tok == Tok::Plus || lex.tok == Tok::Minus)) {
      const bool add = lex.tok == Tok::Plus;
      lex.next();
      const int lhs_height = height;
      auto rhs = parse_bterm();
      if (!rhs) return nullptr;
      lhs = bexpr_binary(add ? BoundExpr::Kind::Add : BoundExpr::Kind::Sub,
                         std::move(lhs), lhs_height, std::move(rhs));
    }
    return lhs;
  }

  std::unique_ptr<BoundExpr> parse_bterm() {
    auto lhs = parse_bfact();
    while (lhs && lex.tok == Tok::Star) {
      lex.next();
      const int lhs_height = height;
      auto rhs = parse_bfact();
      if (!rhs) return nullptr;
      lhs = bexpr_binary(BoundExpr::Kind::Mul, std::move(lhs), lhs_height,
                         std::move(rhs));
    }
    return lhs;
  }

  std::unique_ptr<BoundExpr> parse_bfact() {
    if (lex.tok == Tok::Int) {
      auto node = std::make_unique<BoundExpr>();
      node->kind = BoundExpr::Kind::Num;
      node->num = lex.tok_num;
      lex.next();
      height = 0;
      return node;
    }
    if (lex.tok == Tok::Ident) {
      if (!is_bound_param(lex.tok_text)) {
        fail("unknown bound parameter '" + std::string{lex.tok_text} + "'");
        return nullptr;
      }
      auto node = std::make_unique<BoundExpr>();
      node->kind = BoundExpr::Kind::Param;
      node->param = std::string{lex.tok_text};
      lex.next();
      height = 0;
      return node;
    }
    if (eat(Tok::LParen)) {
      const Nest nest{*this};
      if (!nest.ok) return nullptr;
      auto inner = parse_bexpr();
      if (!inner) return nullptr;
      if (!eat(Tok::RParen)) {
        fail("expected ')' in bound expression");
        return nullptr;
      }
      return inner;
    }
    fail("expected integer, parameter, or '(' in bound expression");
    return nullptr;
  }

  NodePtr parse_unary() {
    if (lex.tok == Tok::Bang || lex.is_word("not")) {
      lex.next();
      return parse_prefixed(Node::Kind::Not, nullptr);
    }
    if (eat_word("previously")) {
      return parse_prefixed(Node::Kind::Previously, nullptr);
    }
    if (eat_word("historically")) {
      return parse_prefixed(Node::Kind::Historically, nullptr);
    }
    if (lex.is_word("once") || lex.is_word("within")) {
      const bool require_bound = lex.tok_text == "within";
      lex.next();
      std::unique_ptr<Bound> bound;
      if (lex.tok == Tok::LBracket || require_bound) {
        bound = parse_bound(/*lower_bound=*/false);
        if (!bound) return nullptr;
      }
      // `within` is a parser alias of bounded `once`; the printer emits
      // `once[...]`, which reparses to the same AST.
      return parse_prefixed(Node::Kind::Once, std::move(bound));
    }
    if (eat_word("before")) {
      auto bound = parse_bound(/*lower_bound=*/false);
      if (!bound) return nullptr;
      return parse_prefixed(Node::Kind::Before, std::move(bound));
    }
    if (eat_word("holds")) {
      auto bound = parse_bound(/*lower_bound=*/true);
      if (!bound) return nullptr;
      return parse_prefixed(Node::Kind::Holds, std::move(bound));
    }
    return parse_primary();
  }

  /// The operand of a prefix operator, one nesting level down.
  NodePtr parse_prefixed(Node::Kind kind, std::unique_ptr<Bound> bound) {
    const Nest nest{*this};
    if (!nest.ok) return nullptr;
    NodePtr operand = parse_unary();
    if (!operand) return nullptr;
    NodePtr node = unary(kind, std::move(operand));
    if (node) node->bound = std::move(bound);
    return node;
  }

  // Atom vocabulary. Events are trace-event atoms (true exactly at a
  // matching event's position); fluents are derived cluster state
  // (piecewise-constant between events).
  static bool is_event_name(std::string_view name) {
    return name == "beat" || name == "c_recv_beat" || name == "c_recv_leave" ||
           name == "c_inactive" || name == "c_crash" || name == "p_recv_beat" ||
           name == "reply" || name == "join_beat" || name == "leave" ||
           name == "p_inactive" || name == "p_crash" || name == "rejoin" ||
           name == "sent" || name == "delivered" || name == "lost" ||
           name == "blocked" || name == "duplicated" || name == "corrupted" ||
           name == "rejected";
  }

  static bool is_fluent_name(std::string_view name) {
    return name == "coord_live" || name == "coord_stopped" ||
           name == "stopped" || name == "alive" || name == "member" ||
           name == "registered" || name == "all_stopped" ||
           name == "any_registered";
  }

  static bool fluent_requires_arg(std::string_view name) {
    return name == "stopped" || name == "alive" || name == "member" ||
           name == "registered";
  }

  NodePtr parse_primary() {
    if (eat(Tok::LParen)) {
      const Nest nest{*this};
      if (!nest.ok) return nullptr;
      NodePtr inner = parse_formula();
      if (!inner) return nullptr;
      if (!eat(Tok::RParen)) return fail("expected ')'");
      return inner;
    }
    height = 0;
    if (lex.tok != Tok::Ident) return fail("expected formula");
    const std::string name{lex.tok_text};
    if (name == "true") { lex.next(); return make(Node::Kind::True); }
    if (name == "false") { lex.next(); return make(Node::Kind::False); }
    if (name == "init") { lex.next(); return make(Node::Kind::Init); }
    const bool event = is_event_name(name);
    const bool fluent = is_fluent_name(name);
    if (!event && !fluent) {
      return fail("unknown atom '" + name +
                  "' (not an event, fluent, or keyword)");
    }
    lex.next();
    NodePtr node = make(event ? Node::Kind::Event : Node::Kind::Fluent);
    node->name = name;
    if (eat(Tok::LParen)) {
      if (lex.tok == Tok::Int) {
        node->arg = Node::Arg::Num;
        node->arg_num = lex.tok_num;
        lex.next();
      } else if (lex.tok == Tok::Ident) {
        node->arg = Node::Arg::Var;
        node->arg_var = std::string{lex.tok_text};
        lex.next();
      } else {
        return fail("expected participant id or variable in '" + name + "(..)'");
      }
      if (!eat(Tok::RParen)) return fail("expected ')' after atom argument");
    }
    if (fluent && fluent_requires_arg(name) && node->arg == Node::Arg::None) {
      return fail("fluent '" + name + "' requires a participant argument");
    }
    if (fluent && !fluent_requires_arg(name) && node->arg != Node::Arg::None) {
      return fail("fluent '" + name + "' does not take an argument");
    }
    return node;
  }
};

// ---------------------------------------------------------------------------
// Printer. Emits parentheses from precedence so parse(print(f)) == f.

int precedence(Node::Kind kind) {
  switch (kind) {
    case Node::Kind::Forall:
    case Node::Kind::Exists: return 0;
    case Node::Kind::Iff: return 1;
    case Node::Kind::Implies: return 2;
    case Node::Kind::Or: return 3;
    case Node::Kind::And: return 4;
    case Node::Kind::Since: return 5;
    case Node::Kind::Not:
    case Node::Kind::Previously:
    case Node::Kind::Once:
    case Node::Kind::Historically:
    case Node::Kind::Before:
    case Node::Kind::Holds: return 6;
    default: return 7;
  }
}

void print_bexpr(std::ostream& out, const BoundExpr& expr, int parent_prec) {
  switch (expr.kind) {
    case BoundExpr::Kind::Num: out << expr.num; return;
    case BoundExpr::Kind::Param: out << expr.param; return;
    case BoundExpr::Kind::Add:
    case BoundExpr::Kind::Sub: {
      const bool parens = parent_prec > 1;
      if (parens) out << '(';
      print_bexpr(out, *expr.lhs, 1);
      out << (expr.kind == BoundExpr::Kind::Add ? " + " : " - ");
      // '-' is left-associative: parenthesise a +/- on the right.
      print_bexpr(out, *expr.rhs, 2);
      if (parens) out << ')';
      return;
    }
    case BoundExpr::Kind::Mul: {
      const bool parens = parent_prec > 2;  // right operand of another '*'
      if (parens) out << '(';
      print_bexpr(out, *expr.lhs, 2);
      out << " * ";
      print_bexpr(out, *expr.rhs, 3);
      if (parens) out << ')';
      return;
    }
  }
}

void print_bound(std::ostream& out, const Bound& bound) {
  out << '[';
  switch (bound.cmp) {
    case Cmp::Le: out << "<= "; break;
    case Cmp::Lt: out << "< "; break;
    case Cmp::Gt: out << "> "; break;
    case Cmp::Ge: out << ">= "; break;
  }
  print_bexpr(out, *bound.expr, 0);
  out << ']';
}

void print_node(std::ostream& out, const Node& node, int parent_prec) {
  const int prec = precedence(node.kind);
  // Right-associative / non-associative operators reparse correctly
  // only if a same-precedence child on the wrong side is wrapped; the
  // callers below pass prec+1 where needed, so `<=` suffices here.
  const bool parens = prec < parent_prec;
  if (parens) out << '(';
  switch (node.kind) {
    case Node::Kind::True: out << "true"; break;
    case Node::Kind::False: out << "false"; break;
    case Node::Kind::Init: out << "init"; break;
    case Node::Kind::Event:
    case Node::Kind::Fluent:
      out << node.name;
      if (node.arg == Node::Arg::Var) out << '(' << node.arg_var << ')';
      if (node.arg == Node::Arg::Num) out << '(' << node.arg_num << ')';
      break;
    case Node::Kind::Not:
      out << '!';
      print_node(out, *node.lhs, prec);
      break;
    case Node::Kind::Previously:
      out << "previously ";
      print_node(out, *node.lhs, prec);
      break;
    case Node::Kind::Historically:
      out << "historically ";
      print_node(out, *node.lhs, prec);
      break;
    case Node::Kind::Once:
      out << "once";
      if (node.bound) print_bound(out, *node.bound);
      out << ' ';
      print_node(out, *node.lhs, prec);
      break;
    case Node::Kind::Before:
      out << "before";
      print_bound(out, *node.bound);
      out << ' ';
      print_node(out, *node.lhs, prec);
      break;
    case Node::Kind::Holds:
      out << "holds";
      print_bound(out, *node.bound);
      out << ' ';
      print_node(out, *node.lhs, prec);
      break;
    case Node::Kind::And:
      print_node(out, *node.lhs, prec);
      out << " && ";
      print_node(out, *node.rhs, prec + 1);
      break;
    case Node::Kind::Or:
      print_node(out, *node.lhs, prec);
      out << " || ";
      print_node(out, *node.rhs, prec + 1);
      break;
    case Node::Kind::Implies:
      print_node(out, *node.lhs, prec + 1);  // right-associative
      out << " -> ";
      print_node(out, *node.rhs, prec);
      break;
    case Node::Kind::Iff:
      print_node(out, *node.lhs, prec);
      out << " <-> ";
      print_node(out, *node.rhs, prec + 1);
      break;
    case Node::Kind::Since:
      print_node(out, *node.lhs, prec);
      out << " since ";
      print_node(out, *node.rhs, prec + 1);
      break;
    case Node::Kind::Forall:
    case Node::Kind::Exists:
      out << (node.kind == Node::Kind::Forall ? "forall " : "exists ")
          << node.name << ": ";
      print_node(out, *node.lhs, prec);
      break;
  }
  if (parens) out << ')';
}

bool bexpr_equal(const BoundExpr& a, const BoundExpr& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case BoundExpr::Kind::Num: return a.num == b.num;
    case BoundExpr::Kind::Param: return a.param == b.param;
    default:
      return bexpr_equal(*a.lhs, *b.lhs) && bexpr_equal(*a.rhs, *b.rhs);
  }
}

std::unique_ptr<BoundExpr> clone_bexpr(const BoundExpr& expr) {
  auto out = std::make_unique<BoundExpr>();
  out->kind = expr.kind;
  out->num = expr.num;
  out->param = expr.param;
  if (expr.lhs) out->lhs = clone_bexpr(*expr.lhs);
  if (expr.rhs) out->rhs = clone_bexpr(*expr.rhs);
  return out;
}

}  // namespace

bool is_bound_param(std::string_view name) {
  for (const auto param : kBoundParams) {
    if (name == param) return true;
  }
  return false;
}

ParseResult parse(std::string_view text) {
  Parser parser{text};
  ParseResult result;
  result.formula = parser.parse_formula();
  if (result.formula && parser.lex.tok != Tok::End) {
    parser.error = "trailing input after formula";
    parser.error_at = parser.lex.tok_at;
    result.formula = nullptr;
  }
  if (!result.formula) {
    result.error = parser.error.empty() ? "parse error" : parser.error;
    result.error_at = parser.error_at;
  }
  return result;
}

std::string print(const Node& formula) {
  std::ostringstream out;
  print_node(out, formula, 0);
  return out.str();
}

bool equal(const Node& a, const Node& b) {
  if (a.kind != b.kind || a.name != b.name || a.arg != b.arg) return false;
  if (a.arg == Node::Arg::Var && a.arg_var != b.arg_var) return false;
  if (a.arg == Node::Arg::Num && a.arg_num != b.arg_num) return false;
  if (static_cast<bool>(a.bound) != static_cast<bool>(b.bound)) return false;
  if (a.bound &&
      (a.bound->cmp != b.bound->cmp ||
       !bexpr_equal(*a.bound->expr, *b.bound->expr))) {
    return false;
  }
  if (static_cast<bool>(a.lhs) != static_cast<bool>(b.lhs)) return false;
  if (static_cast<bool>(a.rhs) != static_cast<bool>(b.rhs)) return false;
  if (a.lhs && !equal(*a.lhs, *b.lhs)) return false;
  if (a.rhs && !equal(*a.rhs, *b.rhs)) return false;
  return true;
}

NodePtr clone(const Node& formula) {
  auto out = std::make_unique<Node>();
  out->kind = formula.kind;
  out->name = formula.name;
  out->arg = formula.arg;
  out->arg_var = formula.arg_var;
  out->arg_num = formula.arg_num;
  if (formula.bound) {
    out->bound = std::make_unique<Bound>();
    out->bound->cmp = formula.bound->cmp;
    out->bound->expr = clone_bexpr(*formula.bound->expr);
  }
  if (formula.lhs) out->lhs = clone(*formula.lhs);
  if (formula.rhs) out->rhs = clone(*formula.rhs);
  return out;
}

}  // namespace ahb::rv::pltl
