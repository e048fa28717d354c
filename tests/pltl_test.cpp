// The past-time-LTL toolchain (src/rv/pltl + models/formula_check):
// parser round-trips and rejection, per-operator streaming semantics,
// a differential fuzz of the streaming evaluator against a naive
// full-history reference, shipped-formula/hand-monitor verdict
// equivalence on chaos runs and the conformance corpus, fingerprint
// invariance when formulas ride along with campaigns and missions, and
// the model backend's Table-1 verdicts via reachability and NDFS.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/mission.hpp"
#include "chaos/runner.hpp"
#include "hb/cluster_scale.hpp"
#include "mc/ndfs.hpp"
#include "models/formula_check.hpp"
#include "models/heartbeat_model.hpp"
#include "rv/availability.hpp"
#include "rv/monitor.hpp"
#include "rv/pltl/eval.hpp"
#include "rv/pltl/formulas.hpp"
#include "rv/pltl/pltl.hpp"
#include "rv/suspicion.hpp"

namespace ahb {
namespace {

namespace pltl = rv::pltl;
using hb::ProtocolEvent;
using PKind = ProtocolEvent::Kind;
using CKind = sim::ChannelEvent::Kind;

ProtocolEvent pev(PKind kind, int node, sim::Time at) {
  return ProtocolEvent{kind, at, node, 0, 0};
}

sim::ChannelEvent cev(CKind kind, sim::Time at) {
  sim::ChannelEvent event{};
  event.kind = kind;
  event.at = at;
  return event;
}

pltl::BindParams binary_params(int tmin = 4, int tmax = 10) {
  pltl::BindParams params;
  params.variant = proto::Variant::Binary;
  params.timing = proto::Timing{tmin, tmax};
  params.fixed_bounds = true;
  params.participants = 1;
  return params;
}

std::unique_ptr<pltl::FormulaMonitor> monitor_for(
    const std::string& text, const pltl::BindParams& params) {
  auto made = pltl::make_monitor({"test", text, 9}, params);
  EXPECT_TRUE(made.ok()) << made.error;
  return std::move(made.monitor);
}

// --- parser ---------------------------------------------------------------

TEST(PltlParser, ShippedFormulasRoundTrip) {
  ASSERT_FALSE(pltl::shipped_formulas().empty());
  for (const auto& shipped : pltl::shipped_formulas()) {
    SCOPED_TRACE(std::string{shipped.name});
    const auto parsed = pltl::parse(shipped.text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const std::string printed = pltl::print(*parsed.formula);
    const auto reparsed = pltl::parse(printed);
    ASSERT_TRUE(reparsed.ok()) << printed << "\n" << reparsed.error;
    EXPECT_TRUE(pltl::equal(*parsed.formula, *reparsed.formula)) << printed;
  }
}

TEST(PltlParser, PrecedenceAndAliases) {
  // `within` is sugar for a bounded `once`.
  const auto within = pltl::parse("within[<= 3] beat");
  const auto once = pltl::parse("once[<= 3] beat");
  ASSERT_TRUE(within.ok() && once.ok());
  EXPECT_TRUE(pltl::equal(*within.formula, *once.formula));
  EXPECT_EQ(pltl::print(*within.formula), pltl::print(*once.formula));

  // Implication is right-associative, && binds tighter than ||, word
  // aliases parse like the symbols.
  const auto pairs = std::vector<std::pair<std::string, std::string>>{
      {"beat -> leave -> reply", "beat -> (leave -> reply)"},
      {"beat && leave || reply", "(beat && leave) || reply"},
      {"beat and leave or not reply", "(beat && leave) || (!reply)"},
      {"beat since leave && reply", "(beat since leave) && reply"},
  };
  for (const auto& [a, b] : pairs) {
    SCOPED_TRACE(a);
    const auto pa = pltl::parse(a);
    const auto pb = pltl::parse(b);
    ASSERT_TRUE(pa.ok() && pb.ok());
    EXPECT_TRUE(pltl::equal(*pa.formula, *pb.formula));
  }
}

TEST(PltlParser, MalformedInputsRejected) {
  const char* bad[] = {
      "",
      "beat &&",
      "(beat",
      "beat)",
      "once[<= ] beat",
      "once[>= 2] beat",      // once takes upper bounds only
      "holds[<= 3] coord_live",  // holds takes lower bounds only
      "within beat",          // within requires a bound
      "no_such_atom",
      "stopped",              // fluent requires an argument
      "coord_live(1)",        // and this one forbids it
      "forall tmin: beat",    // parameter names are not variables
      "forall p beat",        // missing colon
      "beat extra",           // trailing input
      "once[<= 99999999999999999999] beat",  // literal overflow
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    const auto parsed = pltl::parse(text);
    EXPECT_FALSE(parsed.ok());
    EXPECT_FALSE(parsed.error.empty());
    EXPECT_LE(parsed.error_at, std::string_view{text}.size());
  }
  // Channel atoms parse with an argument but are rejected at compile
  // time (the wire events carry no participant identity).
  const auto made = pltl::make_monitor({"bad", "sent(1)", 9}, binary_params());
  EXPECT_FALSE(made.ok());
  EXPECT_FALSE(made.error.empty());
}

TEST(PltlParser, NestingPastTheDepthCapFailsClosed) {
  const int cap = pltl::kMaxDepth;
  const auto repeat = [](const std::string& piece, int k) {
    std::string out;
    for (int i = 0; i < k; ++i) out += piece;
    return out;
  };
  // Each shape nests `k` levels: opener^k beat closer^k.
  const struct {
    const char* opener;
    const char* closer;
  } shapes[] = {{"(", ")"}, {"!", ""}, {"previously ", ""}, {"beat -> ", ""}};
  for (const auto& shape : shapes) {
    SCOPED_TRACE(shape.opener);
    const auto text = [&](int k) {
      return repeat(shape.opener, k) + "beat" + repeat(shape.closer, k);
    };
    const std::string at_cap = text(cap);
    const auto parsed = pltl::parse(at_cap);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const auto reparsed = pltl::parse(pltl::print(*parsed.formula));
    ASSERT_TRUE(reparsed.ok()) << reparsed.error;
    EXPECT_TRUE(pltl::equal(*parsed.formula, *reparsed.formula));
    EXPECT_TRUE(pltl::compile(*parsed.formula, binary_params()).ok());

    const std::string past_cap = text(cap + 1);
    const auto rejected = pltl::parse(past_cap);
    EXPECT_FALSE(rejected.ok());
    EXPECT_NE(rejected.error.find("nested deeper"), std::string::npos)
        << rejected.error;
    EXPECT_LE(rejected.error_at, past_cap.size());
  }

  // Inputs that overflowed the stack before the cap, and binary and
  // bound-expression chains whose trees grow without recursion.
  const std::string deep[] = {
      std::string(20'000, '(') + "beat" + std::string(20'000, ')'),
      std::string(1'000'000, '!') + "beat",
      repeat("beat && ", 100'000) + "beat",
      repeat("beat since ", cap + 1) + "beat",
      "once[<= " + repeat("1 + ", cap + 1) + "1] beat",
      "once[<= " + std::string(20'000, '(') + "1" + std::string(20'000, ')') +
          "] beat",
  };
  for (const std::string& text : deep) {
    SCOPED_TRACE(text.substr(0, 24));
    const auto parsed = pltl::parse(text);
    EXPECT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error.find("nested deeper"), std::string::npos)
        << parsed.error;
    EXPECT_LE(parsed.error_at, text.size());
  }
}

TEST(PltlParser, CompileRejectsAHandBuiltTreePastTheDepthCap) {
  pltl::NodePtr tree = pltl::parse("beat").formula;
  ASSERT_NE(tree, nullptr);
  for (int i = 0; i <= pltl::kMaxDepth; ++i) {
    auto node = std::make_unique<pltl::Node>();
    node->kind = pltl::Node::Kind::Not;
    node->lhs = std::move(tree);
    tree = std::move(node);
  }
  const auto compiled = pltl::compile(*tree, binary_params());
  EXPECT_FALSE(compiled.ok());
  EXPECT_NE(compiled.error.find("nested deeper"), std::string::npos)
      << compiled.error;
}

// --- streaming evaluator: operator semantics ------------------------------

TEST(PltlEval, InitIsTrueOnlyAtTheInitialPosition) {
  const auto m = monitor_for("init", binary_params());
  EXPECT_TRUE(m->value());
  m->on_protocol_event(pev(PKind::CoordinatorBeat, 0, 1));
  EXPECT_FALSE(m->value());
  EXPECT_EQ(m->violations_total(), 1u);
}

TEST(PltlEval, PreviouslyLagsByOnePosition) {
  const auto m = monitor_for("previously beat", binary_params());
  EXPECT_FALSE(m->value());
  m->on_protocol_event(pev(PKind::CoordinatorBeat, 0, 1));
  EXPECT_FALSE(m->value());  // beat is *now*, not previously
  m->on_protocol_event(pev(PKind::ParticipantLeft, 1, 2));
  EXPECT_TRUE(m->value());
  m->on_protocol_event(pev(PKind::ParticipantLeft, 1, 3));
  EXPECT_FALSE(m->value());
}

TEST(PltlEval, BoundedOnceExpires) {
  const auto m = monitor_for("within[<= 4] beat", binary_params());
  EXPECT_FALSE(m->value());
  m->on_protocol_event(pev(PKind::CoordinatorBeat, 0, 2));
  EXPECT_TRUE(m->value());
  m->on_protocol_event(pev(PKind::ParticipantLeft, 1, 6));
  EXPECT_TRUE(m->value());  // 6 - 2 <= 4
  m->on_protocol_event(pev(PKind::ParticipantLeft, 1, 7));
  EXPECT_FALSE(m->value());  // 7 - 2 > 4
  EXPECT_GE(m->violations_total(), 1u);
}

TEST(PltlEval, UnboundedOnceLatches) {
  const auto m = monitor_for("once p_crash", binary_params());
  m->on_protocol_event(pev(PKind::CoordinatorBeat, 0, 1));
  EXPECT_FALSE(m->value());
  m->on_protocol_event(pev(PKind::ParticipantCrashed, 1, 5));
  EXPECT_TRUE(m->value());
  m->on_protocol_event(pev(PKind::CoordinatorBeat, 0, 100));
  EXPECT_TRUE(m->value());
}

TEST(PltlEval, HistoricallyFallsOnFirstFailure) {
  const auto m = monitor_for("historically !p_crash", binary_params());
  EXPECT_TRUE(m->value());
  m->on_protocol_event(pev(PKind::CoordinatorBeat, 0, 1));
  EXPECT_TRUE(m->value());
  m->on_protocol_event(pev(PKind::ParticipantCrashed, 1, 2));
  EXPECT_FALSE(m->value());
  m->on_protocol_event(pev(PKind::CoordinatorBeat, 0, 3));
  EXPECT_FALSE(m->value());  // sticky
  EXPECT_EQ(m->violations_total(), 1u);  // edge-triggered: counted once
}

TEST(PltlEval, SinceHoldsUntilLhsBreaks) {
  // "no crash since a beat": true from a beat onward while !p_crash.
  const auto m = monitor_for("(!p_crash) since beat", binary_params());
  EXPECT_FALSE(m->value());
  m->on_protocol_event(pev(PKind::CoordinatorBeat, 0, 1));
  EXPECT_TRUE(m->value());
  m->on_protocol_event(pev(PKind::ParticipantLeft, 1, 2));
  EXPECT_TRUE(m->value());
  m->on_protocol_event(pev(PKind::ParticipantCrashed, 1, 3));
  EXPECT_FALSE(m->value());
  m->on_protocol_event(pev(PKind::CoordinatorBeat, 0, 4));
  EXPECT_TRUE(m->value());  // fresh witness
}

TEST(PltlEval, BeforeExcludesTheCurrentPosition) {
  const auto m = monitor_for("before[<= 2] beat", binary_params());
  m->on_protocol_event(pev(PKind::CoordinatorBeat, 0, 5));
  EXPECT_FALSE(m->value());  // the witness must be strictly earlier
  m->on_protocol_event(pev(PKind::ParticipantLeft, 1, 6));
  EXPECT_TRUE(m->value());
  m->on_protocol_event(pev(PKind::ParticipantLeft, 1, 9));
  EXPECT_FALSE(m->value());
}

TEST(PltlEval, HoldsMeasuresTheCurrentTrueStretch) {
  // coord_stopped turns true at the inactivation and stays; the stretch
  // is anchored there.
  const auto m = monitor_for("holds[> 3] coord_stopped", binary_params());
  m->on_protocol_event(pev(PKind::CoordinatorInactivated, 0, 2));
  EXPECT_FALSE(m->value());  // stretch length 0
  m->on_protocol_event(pev(PKind::ParticipantLeft, 1, 4));
  EXPECT_FALSE(m->value());  // 4 - 2 = 2
  m->on_protocol_event(pev(PKind::ParticipantLeft, 1, 6));
  EXPECT_TRUE(m->value());  // 6 - 2 = 4 > 3
}

TEST(PltlEval, FinishChecksTheHorizonWithoutCommitting) {
  const auto m = monitor_for("within[<= 4] beat", binary_params());
  m->on_protocol_event(pev(PKind::CoordinatorBeat, 0, 2));
  EXPECT_TRUE(m->value());
  EXPECT_EQ(m->violations_total(), 1u);  // initial fall at position 0
  m->finish(100);
  EXPECT_EQ(m->violations_total(), 2u);  // deadline long expired
}

TEST(PltlEval, QuantifierExpandsOverParticipants) {
  auto params = binary_params();
  params.variant = proto::Variant::Static;
  params.participants = 2;
  const auto m = monitor_for("forall p: once c_recv_beat(p)", params);
  m->on_protocol_event(pev(PKind::CoordinatorReceivedBeat, 1, 1));
  EXPECT_FALSE(m->value());
  m->on_protocol_event(pev(PKind::CoordinatorReceivedBeat, 2, 2));
  EXPECT_TRUE(m->value());
}

// --- satellite: zero-event availability stays finite ----------------------

TEST(Availability, ZeroEventSummaryIsFinite) {
  rv::AvailabilityStats stats(2);
  stats.finish(0);
  const auto& summary = stats.summary();
  EXPECT_EQ(summary.up_fraction(), 1.0);
  EXPECT_EQ(summary.detection_mean(), 0.0);
  EXPECT_TRUE(std::isfinite(summary.up_fraction()));
  EXPECT_TRUE(std::isfinite(summary.detection_mean()));
}

// --- satellite: detaching a sink mid-run ----------------------------------

TEST(SinkChain, DetachMidRunThenDestroyIsSafe) {
  chaos::RunSpec spec;
  spec.variant = proto::Variant::Dynamic;
  spec.tmin = 4;
  spec.tmax = 10;
  spec.participants = 2;
  spec.horizon = 400;
  hb::ScaleCluster cluster(chaos::cluster_config_for(spec));

  auto made = pltl::make_monitor({"r1", std::string{pltl::find_shipped("r1")->text}, 1},
                                 pltl::BindParams{spec.variant, spec.timing(),
                                                  true, spec.participants, 2});
  ASSERT_TRUE(made.ok()) << made.error;
  cluster.add_sink(made.monitor.get());
  cluster.start();
  cluster.run_until(100);
  EXPECT_GT(made.monitor->events_seen(), 0u);

  // Detach and destroy the monitor with the run still going: the chain
  // must not retain a dangling pointer (ASan-covered via the rv label).
  cluster.remove_sink(made.monitor.get());
  const auto seen = made.monitor->events_seen();
  made.monitor.reset();
  cluster.run_until(spec.horizon);
  EXPECT_GT(cluster.network_stats().delivered, 0u);
  (void)seen;
}

// --- satellite: S2 obligation is discharged on a graceful leave -----------

TEST(Suspicion, GracefulLeaveDischargesS2AndFormulaAgrees) {
  const auto params = binary_params();
  rv::SuspicionMonitor::Config config;
  config.variant = params.variant;
  config.timing = params.timing;
  config.participants = 1;
  const auto bounds =
      rv::MonitorBounds::defaults(params.timing, params.variant, true);

  const std::string s2_text{pltl::find_shipped("s2")->text};
  const std::vector<ProtocolEvent> graceful = {
      pev(PKind::CoordinatorReceivedBeat, 1, 10),
      pev(PKind::ParticipantLeft, 1, 20),
      pev(PKind::CoordinatorReceivedLeave, 1, 22),
  };
  const std::vector<ProtocolEvent> crashed = {
      pev(PKind::CoordinatorReceivedBeat, 1, 10),
      pev(PKind::ParticipantCrashed, 1, 20),
  };

  const auto s2_fired = [&](const std::vector<ProtocolEvent>& events,
                            bool use_formula) {
    if (use_formula) {
      auto made = pltl::make_monitor({"s2", s2_text, 4}, params);
      EXPECT_TRUE(made.ok()) << made.error;
      for (const auto& event : events) made.monitor->on_protocol_event(event);
      made.monitor->finish(400);
      return made.monitor->violations_total() > 0;
    }
    rv::SuspicionMonitor monitor{config, bounds};
    for (const auto& event : events) monitor.on_protocol_event(event);
    monitor.finish(400);
    return std::any_of(
        monitor.violations().begin(), monitor.violations().end(),
        [](const rv::Violation& v) {
          return v.detail.find("never reached suspicion threshold") !=
                 std::string::npos;
        });
  };

  // Negative control: the leave discharges the obligation on both paths.
  EXPECT_FALSE(s2_fired(graceful, /*use_formula=*/false));
  EXPECT_FALSE(s2_fired(graceful, /*use_formula=*/true));
  // Positive control: a crash with no further rounds fires on both.
  EXPECT_TRUE(s2_fired(crashed, /*use_formula=*/false));
  EXPECT_TRUE(s2_fired(crashed, /*use_formula=*/true));
}

// --- differential fuzz: streaming vs full-history reference ---------------

// The reference evaluates the *AST* (not the compiled form) over the
// full list of committed positions, with environment-based quantifier
// expansion and declarative (exists/forall) definitions of the past
// operators — an independent path from the compiler's postorder
// instructions and incremental per-operator state.
struct RefPos {
  sim::Time at = 0;
  bool init = false;
  bool has_pe = false;
  ProtocolEvent pe{};
  bool has_ce = false;
  sim::ChannelEvent ce{};
  pltl::FluentTracker fluents;
};

struct EventAtom {
  const char* name;
  bool protocol;
  int kind;
};

constexpr EventAtom kRefEventAtoms[] = {
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

using Env = std::map<std::string, int>;

sim::Time ref_bexpr(const pltl::BoundExpr& e, const pltl::BindParams& params) {
  switch (e.kind) {
    case pltl::BoundExpr::Kind::Num: return e.num;
    case pltl::BoundExpr::Kind::Param: return params.param(e.param);
    case pltl::BoundExpr::Kind::Add:
      return ref_bexpr(*e.lhs, params) + ref_bexpr(*e.rhs, params);
    case pltl::BoundExpr::Kind::Sub:
      return ref_bexpr(*e.lhs, params) - ref_bexpr(*e.rhs, params);
    case pltl::BoundExpr::Kind::Mul:
      return ref_bexpr(*e.lhs, params) * ref_bexpr(*e.rhs, params);
  }
  ADD_FAILURE() << "bad bound expr";
  return 0;
}

bool ref_cmp(sim::Time d, pltl::Cmp cmp, sim::Time k) {
  switch (cmp) {
    case pltl::Cmp::Le: return d <= k;
    case pltl::Cmp::Lt: return d < k;
    case pltl::Cmp::Gt: return d > k;
    case pltl::Cmp::Ge: return d >= k;
  }
  return false;
}

int ref_arg(const pltl::Node& n, const Env& env) {
  if (n.arg == pltl::Node::Arg::Num) return n.arg_num;
  if (n.arg == pltl::Node::Arg::Var) {
    const auto it = env.find(n.arg_var);
    EXPECT_NE(it, env.end()) << "unbound " << n.arg_var;
    return it == env.end() ? -1 : it->second;
  }
  return -1;
}

bool ref_eval(const pltl::Node& n, int i, const std::vector<RefPos>& pos,
              const pltl::BindParams& params, const Env& env) {
  using K = pltl::Node::Kind;
  const auto sub = [&](const pltl::Node& c, int j) {
    return ref_eval(c, j, pos, params, env);
  };
  switch (n.kind) {
    case K::True: return true;
    case K::False: return false;
    case K::Init: return pos[static_cast<std::size_t>(i)].init;
    case K::Event: {
      const RefPos& p = pos[static_cast<std::size_t>(i)];
      for (const auto& atom : kRefEventAtoms) {
        if (n.name != atom.name) continue;
        if (atom.protocol) {
          if (!p.has_pe || static_cast<int>(p.pe.kind) != atom.kind) {
            return false;
          }
          const int want = ref_arg(n, env);
          return want < 0 || p.pe.node == want;
        }
        return p.has_ce && static_cast<int>(p.ce.kind) == atom.kind;
      }
      ADD_FAILURE() << "unknown event atom " << n.name;
      return false;
    }
    case K::Fluent: {
      const auto& fl = pos[static_cast<std::size_t>(i)].fluents;
      if (n.name == "coord_live") return fl.coordinator_live();
      if (n.name == "coord_stopped") return !fl.coordinator_live();
      if (n.name == "all_stopped") return fl.all_stopped();
      if (n.name == "any_registered") return fl.any_registered();
      const int node = ref_arg(n, env);
      if (n.name == "stopped") return fl.stopped(node);
      if (n.name == "alive") return !fl.stopped(node);
      if (n.name == "member" || n.name == "registered") {
        return fl.member(node);
      }
      ADD_FAILURE() << "unknown fluent " << n.name;
      return false;
    }
    case K::Not: return !sub(*n.lhs, i);
    case K::And: return sub(*n.lhs, i) && sub(*n.rhs, i);
    case K::Or: return sub(*n.lhs, i) || sub(*n.rhs, i);
    case K::Implies: return !sub(*n.lhs, i) || sub(*n.rhs, i);
    case K::Iff: return sub(*n.lhs, i) == sub(*n.rhs, i);
    case K::Previously: return i > 0 && sub(*n.lhs, i - 1);
    case K::Historically:
      for (int j = 0; j <= i; ++j) {
        if (!sub(*n.lhs, j)) return false;
      }
      return true;
    case K::Since:
      // exists j <= i: rhs(j) and lhs holds on (j, i].
      for (int j = i; j >= 0; --j) {
        if (sub(*n.rhs, j)) return true;
        if (!sub(*n.lhs, j)) return false;
      }
      return false;
    case K::Once: {
      if (n.bound == nullptr) {
        for (int j = 0; j <= i; ++j) {
          if (sub(*n.lhs, j)) return true;
        }
        return false;
      }
      const sim::Time k = ref_bexpr(*n.bound->expr, params);
      if (sub(*n.lhs, i)) return true;
      const sim::Time now = pos[static_cast<std::size_t>(i)].at;
      for (int j = 0; j < i; ++j) {
        if (sub(*n.lhs, j) &&
            ref_cmp(now - pos[static_cast<std::size_t>(j)].at,
                    n.bound->cmp, k)) {
          return true;
        }
      }
      return false;
    }
    case K::Before: {
      const sim::Time k = ref_bexpr(*n.bound->expr, params);
      const sim::Time now = pos[static_cast<std::size_t>(i)].at;
      for (int j = 0; j < i; ++j) {
        if (sub(*n.lhs, j) &&
            ref_cmp(now - pos[static_cast<std::size_t>(j)].at,
                    n.bound->cmp, k)) {
          return true;
        }
      }
      return false;
    }
    case K::Holds: {
      if (!sub(*n.lhs, i)) return false;
      int anchor = i;
      while (anchor > 0 && sub(*n.lhs, anchor - 1)) --anchor;
      const sim::Time k = ref_bexpr(*n.bound->expr, params);
      return ref_cmp(pos[static_cast<std::size_t>(i)].at -
                         pos[static_cast<std::size_t>(anchor)].at,
                     n.bound->cmp, k);
    }
    case K::Forall:
    case K::Exists: {
      Env inner = env;
      for (int id = 1; id <= params.participants; ++id) {
        inner[n.name] = id;
        const bool v = ref_eval(*n.lhs, i, pos, params, inner);
        if (n.kind == K::Forall && !v) return false;
        if (n.kind == K::Exists && v) return true;
      }
      return n.kind == K::Forall;
    }
  }
  ADD_FAILURE() << "bad node kind";
  return false;
}

// Random formula source: emits text (exercising the parser on the way
// in) with every operator, literal and parameterised bounds, and
// quantified participant arguments.
struct FormulaGen {
  std::mt19937_64& rng;
  int participants;

  int pick(int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); }

  std::string bound_expr() {
    switch (pick(4)) {
      case 0: return std::to_string(pick(10));
      case 1: return "tmin";
      case 2: return "tmax";
      default: return "tmin + " + std::to_string(pick(4));
    }
  }

  std::string atom(const std::vector<std::string>& vars) {
    switch (pick(6)) {
      case 0: {  // protocol event, maybe with an argument
        const auto& a = kRefEventAtoms[pick(12)];
        std::string s = a.name;
        const int kind = pick(3);
        if (kind == 1) s += "(" + std::to_string(1 + pick(participants)) + ")";
        if (kind == 2 && !vars.empty()) {
          s += "(" + vars[static_cast<std::size_t>(pick(
                         static_cast<int>(vars.size())))] + ")";
        }
        return s;
      }
      case 1:  // channel event
        return kRefEventAtoms[12 + pick(7)].name;
      case 2: {  // no-arg fluent
        const char* f[] = {"coord_live", "coord_stopped", "all_stopped",
                           "any_registered"};
        return f[pick(4)];
      }
      case 3: {  // arg fluent
        const char* f[] = {"stopped", "alive", "member", "registered"};
        std::string s = f[pick(4)];
        if (!vars.empty() && pick(2) == 0) {
          s += "(" + vars[static_cast<std::size_t>(pick(
                         static_cast<int>(vars.size())))] + ")";
        } else {
          s += "(" + std::to_string(1 + pick(participants)) + ")";
        }
        return s;
      }
      case 4:
        return pick(2) == 0 ? "true" : "false";
      default:
        return "init";
    }
  }

  /// A protocol event atom, with an argument half of the time (the
  /// innermost variable when there is one).
  std::string event(const std::vector<std::string>& vars) {
    std::string s = kRefEventAtoms[pick(12)].name;
    if (pick(2) == 0) {
      s += "(" + (vars.empty() ? std::to_string(1 + pick(participants))
                               : vars.back()) + ")";
    }
    return s;
  }

  /// A fluent atom, with an argument when it takes one.
  std::string fluent(const std::vector<std::string>& vars) {
    const char* shared[] = {"coord_live", "coord_stopped", "all_stopped",
                            "any_registered"};
    const char* own[] = {"stopped", "alive", "member"};
    if (pick(3) == 0) return shared[pick(4)];
    return std::string{own[pick(3)]} + "(" +
           (vars.empty() ? std::to_string(1 + pick(participants))
                         : vars.back()) + ")";
  }

  /// The shapes each phantom-position class rule of compile() decides:
  /// `since` over event and fluent operands (and under `previously`, as
  /// in s2's ladder), bounded operators over fluents, `init`, and `<->`.
  std::string shaped(int depth, std::vector<std::string>& vars) {
    const auto operand = [&] {
      switch (pick(4)) {
        case 0: return event(vars);
        case 1: return "!(" + event(vars) + ")";
        case 2: return fluent(vars);
        default: return "(" + gen(depth - 1, vars) + ")";
      }
    };
    switch (pick(7)) {
      case 0: return "(" + operand() + ") since (" + operand() + ")";
      case 1:
        return "previously ((" + operand() + ") since (" + operand() + "))";
      case 2:
        // One rung of s2's ladder.
        return "(!(" + event(vars) + ")) since (" + event(vars) +
               " && previously (" + operand() + "))";
      case 3: {
        const char* op[] = {"once[<= ", "holds[> ", "before[<= "};
        return op[pick(3)] + bound_expr() + "] (" + fluent(vars) +
               (pick(2) == 0 ? " && " + fluent(vars) : std::string{}) + ")";
      }
      case 4: return "(" + operand() + ") <-> (" + operand() + ")";
      case 5: return "(init) since (" + operand() + ")";
      default: return "(" + operand() + ") || init";
    }
  }

  std::string gen(int depth, std::vector<std::string>& vars) {
    if (depth <= 0 || pick(4) == 0) return atom(vars);
    switch (pick(11)) {
      case 0: return "!(" + gen(depth - 1, vars) + ")";
      case 1: return "previously (" + gen(depth - 1, vars) + ")";
      case 2: return "historically (" + gen(depth - 1, vars) + ")";
      case 3: {
        const char* cmp = pick(2) == 0 ? "<=" : "<";
        const char* op = pick(2) == 0 ? "once" : "within";
        return std::string{op} + "[" + cmp + " " + bound_expr() + "] (" +
               gen(depth - 1, vars) + ")";
      }
      case 4:
        if (pick(2) == 0) return "once (" + gen(depth - 1, vars) + ")";
        return "before[<= " + bound_expr() + "] (" + gen(depth - 1, vars) +
               ")";
      case 5: {
        const char* cmp = pick(2) == 0 ? ">" : ">=";
        return std::string{"holds["} + cmp + " " + bound_expr() + "] (" +
               gen(depth - 1, vars) + ")";
      }
      case 6:
        return "(" + gen(depth - 1, vars) + ") since (" +
               gen(depth - 1, vars) + ")";
      case 7: {
        const char* op[] = {"&&", "||", "->", "<->"};
        return "(" + gen(depth - 1, vars) + ") " + op[pick(4)] + " (" +
               gen(depth - 1, vars) + ")";
      }
      case 8: return shaped(depth, vars);
      default: {
        if (std::find(vars.begin(), vars.end(), "p") != vars.end() &&
            std::find(vars.begin(), vars.end(), "q") != vars.end()) {
          return atom(vars);
        }
        const std::string var =
            std::find(vars.begin(), vars.end(), "p") == vars.end() ? "p" : "q";
        vars.push_back(var);
        std::string body = gen(depth - 1, vars);
        vars.pop_back();
        return std::string{pick(2) == 0 ? "forall " : "exists "} + var +
               ": (" + body + ")";
      }
    }
  }
};

TEST(PltlFuzz, StreamingMatchesFullHistoryReference) {
  std::mt19937_64 rng{20260807};
  pltl::BindParams params;
  params.variant = proto::Variant::Dynamic;
  params.timing = proto::Timing{4, 10};
  params.fixed_bounds = true;
  params.participants = 3;

  int formulas_checked = 0;
  for (int iter = 0; iter < 400; ++iter) {
    FormulaGen gen{rng, params.participants};
    std::vector<std::string> vars;
    const std::string text = gen.gen(4, vars);
    SCOPED_TRACE("iter " + std::to_string(iter) + ": " + text);

    const auto parsed = pltl::parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;

    // Printer round-trip on every generated formula.
    const auto reparsed = pltl::parse(pltl::print(*parsed.formula));
    ASSERT_TRUE(reparsed.ok()) << pltl::print(*parsed.formula);
    ASSERT_TRUE(pltl::equal(*parsed.formula, *reparsed.formula));

    auto made = pltl::make_monitor({"fuzz", text, 9}, params);
    ASSERT_TRUE(made.ok()) << made.error;
    auto& monitor = *made.monitor;

    // Random trace; reference positions mirror the two-pass discipline:
    // position 0 is the initial commit, each event is one committed
    // position with post-event fluents.
    std::vector<RefPos> pos;
    RefPos initial;
    initial.init = true;
    initial.fluents = pltl::FluentTracker(params.variant, params.participants);
    pos.push_back(initial);

    sim::Time now = 0;
    const int events = 40;
    for (int e = 0; e < events; ++e) {
      now += static_cast<sim::Time>(rng() % 4);
      RefPos p;
      p.at = now;
      p.fluents = pos.back().fluents;
      if (rng() % 10 < 7) {
        const auto kind = static_cast<PKind>(rng() % 12);
        const int node = static_cast<int>(rng() % 4);  // 0..participants
        p.has_pe = true;
        p.pe = pev(kind, node, now);
        p.fluents.apply(p.pe);
        monitor.on_protocol_event(p.pe);
      } else {
        const auto kind = static_cast<CKind>(rng() % 7);
        p.has_ce = true;
        p.ce = cev(kind, now);
        monitor.on_channel_event(p.ce);
      }
      pos.push_back(p);

      const int i = static_cast<int>(pos.size()) - 1;
      const bool expect = ref_eval(*parsed.formula, i, pos, params, {});
      ASSERT_EQ(monitor.value(), expect)
          << "position " << i << " at t=" << now;
    }
    // And the initial position, once per formula.
    ASSERT_EQ(ref_eval(*parsed.formula, 0, pos, params, {}),
              [&] {
                auto fresh = pltl::make_monitor({"fuzz", text, 9}, params);
                return fresh.monitor->value();
              }());
    ++formulas_checked;
  }
  EXPECT_EQ(formulas_checked, 400);
}

// --- sparse quantifier evaluation vs the full-history reference ----------

/// Drives a FormulaMonitor and the reference in lockstep. The reference
/// replays the monitor's two passes: a phantom check position (no
/// event, pre-event fluents) before each committed event position, and
/// one at the horizon for finish(). Violations are the true-to-false
/// falls of that value sequence.
class Lockstep {
 public:
  Lockstep(const std::string& text, const pltl::BindParams& params)
      : params_(params), parsed_(pltl::parse(text)) {
    auto made = pltl::make_monitor({"sparse", text, 9}, params);
    EXPECT_TRUE(made.ok()) << made.error;
    monitor_ = std::move(made.monitor);
    if (!ok()) return;
    monitor_->set_max_recorded(1u << 20);
    RefPos initial;
    initial.init = true;
    initial.fluents = pltl::FluentTracker(params.variant, params.participants);
    pos_.push_back(initial);
    observe(0, committed_value());
  }

  bool ok() const { return parsed_.ok() && monitor_ != nullptr; }
  pltl::FormulaMonitor& monitor() { return *monitor_; }

  void protocol(PKind kind, int node, sim::Time at) {
    observe(at, phantom_value(at));
    RefPos p = next_position(at);
    p.has_pe = true;
    p.pe = pev(kind, node, at);
    p.fluents.apply(p.pe);
    pos_.push_back(p);
    observe(at, committed_value());
    monitor_->on_protocol_event(p.pe);
  }

  void channel(CKind kind, sim::Time at) {
    observe(at, phantom_value(at));
    RefPos p = next_position(at);
    p.has_ce = true;
    p.ce = cev(kind, at);
    pos_.push_back(p);
    observe(at, committed_value());
    monitor_->on_channel_event(p.ce);
  }

  void finish(sim::Time horizon) {
    observe(horizon, phantom_value(horizon));
    monitor_->finish(horizon);
  }

  /// Root value, violation total and every violation's time agree.
  ::testing::AssertionResult matches() const {
    const bool expect = committed_value();
    if (monitor_->value() != expect) {
      return ::testing::AssertionFailure()
             << "root value " << monitor_->value() << ", reference " << expect
             << " at position " << pos_.size() - 1 << " t="
             << pos_.back().at;
    }
    if (monitor_->violations_total() != falls_.size()) {
      return ::testing::AssertionFailure()
             << monitor_->violations_total() << " violations, reference "
             << falls_.size();
    }
    for (std::size_t i = 0; i < falls_.size(); ++i) {
      if (monitor_->violations()[i].at != falls_[i]) {
        return ::testing::AssertionFailure()
               << "violation " << i << " at t=" << monitor_->violations()[i].at
               << ", reference t=" << falls_[i];
      }
    }
    return ::testing::AssertionSuccess();
  }

 private:
  RefPos next_position(sim::Time at) const {
    RefPos p;
    p.at = at;
    p.fluents = pos_.back().fluents;
    return p;
  }
  bool committed_value() const {
    return ref_eval(*parsed_.formula, static_cast<int>(pos_.size()) - 1, pos_,
                    params_, {});
  }
  bool phantom_value(sim::Time at) {
    pos_.push_back(next_position(at));
    const bool value = committed_value();
    pos_.pop_back();
    return value;
  }
  void observe(sim::Time at, bool value) {
    if (last_ && !value) falls_.push_back(at);
    last_ = value;
  }

  pltl::BindParams params_;
  pltl::ParseResult parsed_;
  std::unique_ptr<pltl::FormulaMonitor> monitor_;
  std::vector<RefPos> pos_;
  std::vector<sim::Time> falls_;
  bool last_ = true;
};

/// `inner` under a top-range operator whose skipping must stay exact:
/// bounded once/before, previously, or a disjunction with init.
std::string top_operator(FormulaGen& gen, const std::string& inner) {
  switch (gen.pick(4)) {
    case 0: return "previously (" + inner + ")";
    case 1: return "once[<= " + gen.bound_expr() + "] (" + inner + ")";
    case 2: return "before[<= " + gen.bound_expr() + "] (" + inner + ")";
    default: return "init || (" + inner + ")";
  }
}

/// A random formula that usually quantifies over the participants:
/// bare, under a top-level forall/exists, a quantifier joined to an
/// unquantified side, a quantifier under a top-range operator, or one
/// joined to a side under such an operator (nested quantifiers and
/// more temporal operators over quantifiers come from the generator
/// itself).
std::string quantified_formula(FormulaGen& gen) {
  std::vector<std::string> vars;
  const char* quant = gen.pick(2) == 0 ? "forall p: (" : "exists p: (";
  const char* op[] = {"&&", "||", "->", "<->"};
  switch (gen.pick(7)) {
    case 0:
      return gen.gen(4, vars);
    case 6: {
      // A quantified class-rule shape, as s2 and r3 are.
      vars.push_back("p");
      return quant + gen.shaped(3, vars) + ")";
    }
    case 1:
    case 2: {
      vars.push_back("p");
      return quant + gen.gen(4, vars) + ")";
    }
    case 3: {
      const std::string side = gen.gen(3, vars);
      vars.push_back("p");
      const std::string body = gen.gen(3, vars);
      return "(" + side + ") " + op[gen.pick(4)] + " (" + quant + body + "))";
    }
    case 4: {
      vars.push_back("p");
      return top_operator(gen, quant + gen.gen(3, vars) + ")");
    }
    default: {
      const std::string side = top_operator(gen, gen.gen(2, vars));
      vars.push_back("p");
      const std::string body = gen.gen(3, vars);
      return "(" + side + ") " + op[gen.pick(4)] + " (" + quant + body + "))";
    }
  }
}

TEST(PltlFuzz, SparseQuantifiersMatchReference) {
  std::mt19937_64 rng{20261017};
  int formulas_checked = 0;
  for (const int n : {1, 2, 5, 8}) {
    for (int iter = 0; iter < 120; ++iter) {
      pltl::BindParams params;
      params.variant =
          iter % 2 == 0 ? proto::Variant::Dynamic : proto::Variant::Static;
      params.timing = proto::Timing{4, 10};
      params.fixed_bounds = true;
      params.participants = n;
      FormulaGen gen{rng, n};
      const std::string text = quantified_formula(gen);
      SCOPED_TRACE("n=" + std::to_string(n) + " iter " +
                   std::to_string(iter) + ": " + text);
      Lockstep run(text, params);
      ASSERT_TRUE(run.ok());
      ASSERT_TRUE(run.matches()) << "initial position";

      // Gaps: equal timestamps, short steps inside every bound, and
      // jumps past every bound (the largest generated bound is tmax).
      sim::Time now = 0;
      for (int e = 0; e < 40; ++e) {
        const auto gap = rng() % 10;
        if (gap >= 8) {
          now += 11 + static_cast<sim::Time>(rng() % 15);
        } else if (gap >= 3) {
          now += 1 + static_cast<sim::Time>(rng() % 3);
        }
        if (rng() % 10 < 7) {
          const auto node =
              static_cast<int>(rng() % static_cast<unsigned>(n + 1));
          run.protocol(static_cast<PKind>(rng() % 12), node, now);
        } else {
          run.channel(static_cast<CKind>(rng() % 7), now);
        }
        ASSERT_TRUE(run.matches()) << "event " << e << " at t=" << now;
        if (e == 20 && rng() % 2 == 0) {
          // A mid-trace finish commits nothing; the events after it may
          // be stamped before its horizon.
          run.finish(now + static_cast<sim::Time>(rng() % 20));
          ASSERT_TRUE(run.matches()) << "mid-trace finish";
        }
      }
      run.finish(now + static_cast<sim::Time>(rng() % 20));
      ASSERT_TRUE(run.matches()) << "finish";
      ++formulas_checked;
    }
  }
  EXPECT_EQ(formulas_checked, 4 * 120);
}

pltl::BindParams static_params(int participants) {
  auto params = binary_params();
  params.variant = proto::Variant::Static;
  params.participants = participants;
  return params;
}

/// Every operand lies inside its own evaluation unit: an instance reads
/// only its range, and a top-range instruction reads only the top
/// range and expansion results. Within one scope no two instructions
/// are equal.
::testing::AssertionResult units_are_self_contained(
    const pltl::Compiled& compiled) {
  constexpr int kTop = -1;
  constexpr int kJoin = -2;
  const int size = static_cast<int>(compiled.instrs.size());
  std::vector<int> unit(static_cast<std::size_t>(size), kTop);
  std::vector<bool> result(static_cast<std::size_t>(size), false);
  int k = 0;
  for (const auto& expansion : compiled.expansions) {
    for (const auto& range : expansion.instances) {
      for (int i = range.begin; i <= range.root; ++i) {
        unit[static_cast<std::size_t>(i)] = k;
      }
      if (range.join >= 0) unit[static_cast<std::size_t>(range.join)] = kJoin;
      ++k;
    }
    result[static_cast<std::size_t>(expansion.result())] = true;
  }
  for (int i = 0; i < size; ++i) {
    const int u = unit[static_cast<std::size_t>(i)];
    if (u == kJoin) continue;
    const auto& ins = compiled.instrs[static_cast<std::size_t>(i)];
    for (const int operand : {ins.a, ins.b}) {
      if (operand < 0) continue;
      if (operand >= i) {
        return ::testing::AssertionFailure()
               << "instruction " << i << " reads a later one, " << operand;
      }
      const int v = unit[static_cast<std::size_t>(operand)];
      const bool ok = u == kTop ? v == kTop ||
                                      result[static_cast<std::size_t>(operand)]
                                : v == u;
      if (!ok) {
        return ::testing::AssertionFailure()
               << "instruction " << i << " (unit " << u << ") reads "
               << operand << " (unit " << v << ")";
      }
    }
    // The scope of an instance is the instance; a top-range run ends
    // at the next expansion, whose result starts the next run.
    for (int j = i - 1; j >= 0; --j) {
      const auto uj = static_cast<std::size_t>(j);
      if (unit[uj] != u || (u == kTop && result[uj])) break;
      if (compiled.instrs[uj] == ins) {
        return ::testing::AssertionFailure()
               << "instructions " << j << " and " << i << " are equal";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(PltlFuzz, SharedInstructionsStayInsideTheirUnit) {
  for (const int n : {1, 2, 1000}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    pltl::BindParams params;
    params.variant = proto::Variant::Dynamic;
    params.timing = proto::Timing{4, 10};
    params.participants = n;
    std::vector<std::string> texts;
    for (const auto& spec : pltl::shipped_monitor_specs()) {
      texts.push_back(spec.text);
    }
    // Top-range runs before, between and after expansions that repeat
    // atoms of the instances next to them.
    texts.push_back("(forall p: beat && reply(p)) && beat");
    texts.push_back("lost -> (exists p: lost || stopped(p)) || lost");
    texts.push_back(
        "once[<= tmax] (forall p: !c_recv_beat(p)) && "
        "(exists q: !c_recv_beat(q)) && !c_recv_beat(1)");
    for (const std::string& text : texts) {
      SCOPED_TRACE(text);
      const auto parsed = pltl::parse(text);
      ASSERT_TRUE(parsed.ok()) << parsed.error;
      const auto compiled = pltl::compile(*parsed.formula, params);
      ASSERT_TRUE(compiled.ok()) << compiled.error;
      EXPECT_TRUE(units_are_self_contained(compiled.compiled));
    }
    std::mt19937_64 rng{20261018};
    for (int iter = 0; iter < 200; ++iter) {
      FormulaGen gen{rng, std::min(n, 8)};
      const std::string text = quantified_formula(gen);
      // Nested quantifiers expand to n^2 instances: small n only.
      const auto quantifiers = [&text](const char* word) {
        std::size_t count = 0;
        for (auto at = text.find(word); at != std::string::npos;
             at = text.find(word, at + 1)) {
          ++count;
        }
        return count;
      };
      if (n > 8 && quantifiers("forall") + quantifiers("exists") > 1) continue;
      SCOPED_TRACE(text);
      const auto parsed = pltl::parse(text);
      ASSERT_TRUE(parsed.ok()) << parsed.error;
      const auto compiled = pltl::compile(*parsed.formula, params);
      ASSERT_TRUE(compiled.ok()) << compiled.error;
      EXPECT_TRUE(units_are_self_contained(compiled.compiled));
    }
  }
  // Sharing at work: s2's ladder reads c_recv_beat(p), its negation and
  // beat three times each.
  const auto s2 = pltl::parse(pltl::find_shipped("s2")->text);
  ASSERT_TRUE(s2.ok());
  const auto compiled = pltl::compile(*s2.formula, static_params(2));
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled.compiled.instrs.size(), 39u);
}

TEST(PltlFuzz, SkippedBoundedOnceWitnessesAtTheLastCommittedPosition) {
  // alive(1) holds while participant 2's events move the monitor on;
  // instance 1 is skipped at every one of them. When 1 crashes, its
  // `within` witness is the last committed position (t=9), not the
  // position where instance 1 was last evaluated (t=0).
  Lockstep run("forall p: within[<= 3] alive(p)", static_params(2));
  ASSERT_TRUE(run.ok());
  for (sim::Time t = 1; t <= 9; ++t) {
    run.protocol(PKind::CoordinatorReceivedBeat, 2, t);
    ASSERT_TRUE(run.matches()) << "t=" << t;
  }
  run.protocol(PKind::ParticipantCrashed, 1, 10);
  ASSERT_TRUE(run.matches());
  EXPECT_TRUE(run.monitor().value());  // 10 - 9 <= 3
  run.protocol(PKind::CoordinatorReceivedBeat, 2, 12);
  ASSERT_TRUE(run.matches());
  EXPECT_TRUE(run.monitor().value());  // 12 - 9 <= 3
  EXPECT_EQ(run.monitor().violations_total(), 0u);
  run.protocol(PKind::CoordinatorReceivedBeat, 2, 13);
  ASSERT_TRUE(run.matches());
  EXPECT_FALSE(run.monitor().value());  // 13 - 9 > 3
  ASSERT_EQ(run.monitor().violations().size(), 1u);
  EXPECT_EQ(run.monitor().violations().front().at, 13);
}

TEST(PltlFuzz, BeforeWithAStandingOperandTracksThePositionGap) {
  // before[<= 2] alive(1) is the gap to the previous position while
  // alive(1) stays true: other participants' events decide it. (False
  // at the initial position, which has no predecessor.)
  Lockstep run("forall p: before[<= 2] alive(p)", static_params(2));
  ASSERT_TRUE(run.ok());
  const std::pair<sim::Time, bool> steps[] = {
      {1, true}, {2, true}, {3, true}, {10, false}, {11, true}, {11, true}};
  for (const auto& [t, expect] : steps) {
    run.protocol(PKind::CoordinatorReceivedBeat, 2, t);
    ASSERT_TRUE(run.matches()) << "t=" << t;
    EXPECT_EQ(run.monitor().value(), expect) << "t=" << t;
  }
  ASSERT_EQ(run.monitor().violations().size(), 2u);
  EXPECT_EQ(run.monitor().violations()[0].at, 0);
  EXPECT_EQ(run.monitor().violations()[1].at, 10);  // the check pass
  run.finish(20);
  ASSERT_TRUE(run.matches());
  EXPECT_EQ(run.monitor().violations_total(), 3u);
}

TEST(PltlFuzz, PreviouslyAndInitRightAfterASharedAtomPosition) {
  // Instance 1 reads no atom participant 2's events match, but the
  // position right after `init` or `beat` still changes its value.
  Lockstep run("forall p: (previously (beat || init)) || c_recv_beat(p)",
               static_params(2));
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run.monitor().value());
  const struct {
    PKind kind;
    int node;
    sim::Time at;
    bool expect;
  } steps[] = {
      {PKind::CoordinatorReceivedBeat, 2, 1, true},  // previously init
      {PKind::CoordinatorReceivedBeat, 1, 2, false},
      {PKind::CoordinatorBeat, 0, 5, false},
      {PKind::CoordinatorReceivedBeat, 2, 6, true},   // previously beat
      {PKind::CoordinatorReceivedBeat, 2, 7, false},
  };
  for (const auto& step : steps) {
    run.protocol(step.kind, step.node, step.at);
    ASSERT_TRUE(run.matches()) << "t=" << step.at;
    EXPECT_EQ(run.monitor().value(), step.expect) << "t=" << step.at;
  }

  // `previously init` alone: every instance is true exactly at the
  // position after the initial one.
  Lockstep init("forall p: previously init", static_params(3));
  ASSERT_TRUE(init.ok());
  init.protocol(PKind::CoordinatorReceivedBeat, 3, 1);
  ASSERT_TRUE(init.matches());
  EXPECT_TRUE(init.monitor().value());
  init.protocol(PKind::CoordinatorReceivedBeat, 3, 1);
  ASSERT_TRUE(init.matches());
  EXPECT_FALSE(init.monitor().value());
}

TEST(PltlFuzz, TimeRunningBackwardsReevaluatesEveryInstance) {
  // Engines stamp events in order, but a skipped instance must not
  // rely on it: instance 1 expired at t=20 and is settled, yet at
  // t=12 its witness (t=10) is recent again.
  const auto m = monitor_for("forall p: within[<= 3] c_recv_beat(p)",
                             static_params(2));
  m->on_protocol_event(pev(PKind::CoordinatorReceivedBeat, 1, 10));
  m->on_protocol_event(pev(PKind::CoordinatorReceivedBeat, 2, 10));
  EXPECT_TRUE(m->value());
  m->on_protocol_event(pev(PKind::CoordinatorReceivedBeat, 2, 20));
  EXPECT_FALSE(m->value());
  m->on_protocol_event(pev(PKind::CoordinatorReceivedBeat, 2, 12));
  EXPECT_TRUE(m->value());

  // The same for the top range: at t=20 it has expired and settled,
  // and a reply it does not read comes stamped t=12.
  const auto top = monitor_for("within[<= 3] c_recv_beat", static_params(2));
  top->on_protocol_event(pev(PKind::CoordinatorReceivedBeat, 1, 10));
  top->on_protocol_event(pev(PKind::ParticipantReplied, 1, 20));
  EXPECT_FALSE(top->value());
  top->on_protocol_event(pev(PKind::ParticipantReplied, 1, 12));
  EXPECT_TRUE(top->value());
}

TEST(PltlFuzz, FinishKeepsTheFlipSchedule) {
  // finish() commits nothing: instance 1's expiry at t=14 must still
  // be due at the next event.
  Lockstep run("forall p: within[<= 3] c_recv_beat(p)", static_params(2));
  ASSERT_TRUE(run.ok());
  run.protocol(PKind::CoordinatorReceivedBeat, 1, 10);
  run.protocol(PKind::CoordinatorReceivedBeat, 2, 11);
  EXPECT_TRUE(run.monitor().value());
  run.finish(14);
  ASSERT_TRUE(run.matches());
  run.protocol(PKind::CoordinatorReceivedBeat, 2, 15);
  ASSERT_TRUE(run.matches());
  EXPECT_FALSE(run.monitor().value());
}

TEST(PltlFuzz, EventsAtOrBeforeAMidTraceFinishHorizon) {
  // finish(20) observes the expired `within` (a violation) without
  // committing. The events after it come stamped before that horizon:
  // the first check pass must observe the committed root again (true)
  // although nothing is due, or the expiry that really comes due at
  // t=15 is not seen as a second fall.
  for (const char* text : {"within[<= 3] c_recv_beat",
                           "forall p: within[<= 3] c_recv_beat(p)"}) {
    SCOPED_TRACE(text);
    Lockstep run(text, static_params(1));
    ASSERT_TRUE(run.ok());
    run.protocol(PKind::CoordinatorReceivedBeat, 1, 10);
    run.protocol(PKind::ParticipantReplied, 1, 11);  // settles the operand
    run.finish(20);
    ASSERT_TRUE(run.matches());
    // The first fall is the initial position, before any c_recv_beat.
    EXPECT_EQ(run.monitor().violations_total(), 2u);
    run.protocol(PKind::ParticipantReplied, 1, 12);
    ASSERT_TRUE(run.matches());
    run.protocol(PKind::ParticipantReplied, 1, 15);
    ASSERT_TRUE(run.matches());
    EXPECT_EQ(run.monitor().violations_total(), 3u);
  }
}

TEST(PltlFuzz, AStableInstanceSkipsThePositionAfterItsOwnEvent) {
  // `!c_recv_beat(p) since beat` is stable: at the position after
  // participant 1's own event the atom is false again, but the since
  // memory already holds the value it committed. Instance 1 is skipped
  // there and must still read false.
  Lockstep ladder("forall p: exists q: !c_recv_beat(p) since beat",
                  static_params(2));
  ASSERT_TRUE(ladder.ok());
  const std::uint64_t before = ladder.monitor().instances_evaluated();
  ladder.protocol(PKind::CoordinatorBeat, 0, 1);
  ASSERT_TRUE(ladder.matches());
  EXPECT_TRUE(ladder.monitor().value());
  ladder.protocol(PKind::CoordinatorReceivedBeat, 1, 2);
  ASSERT_TRUE(ladder.matches());
  EXPECT_FALSE(ladder.monitor().value());
  ladder.protocol(PKind::CoordinatorReceivedBeat, 2, 3);
  ASSERT_TRUE(ladder.matches());
  EXPECT_FALSE(ladder.monitor().value());
  // The beat evaluates both instances, each c_recv_beat its own one;
  // no check pass evaluates anything.
  EXPECT_EQ(ladder.monitor().instances_evaluated() - before, 4u);

  // A root that keeps its committed value over unstable operator state
  // is not enough: the position after reply(1) clears `previously
  // reply(1)`, which the beat at t=3 then reads. The instance must be
  // evaluated in between.
  Lockstep unstable("exists p: true since (beat && previously reply(p))",
                    static_params(2));
  ASSERT_TRUE(unstable.ok());
  unstable.protocol(PKind::ParticipantReplied, 1, 1);
  unstable.protocol(PKind::CoordinatorReceivedBeat, 2, 2);
  unstable.protocol(PKind::CoordinatorBeat, 0, 3);
  ASSERT_TRUE(unstable.matches());
  EXPECT_FALSE(unstable.monitor().value());
}

TEST(PltlFuzz, ACheckPassReadsPreviouslyFromTheLastPosition) {
  // `previously` over an event is never stable: at the check position
  // after reply(1) its value is that reply, not what it committed
  // there.
  for (const char* text :
       {"!previously reply(1)", "forall p: !previously reply(p)"}) {
    SCOPED_TRACE(text);
    Lockstep run(text, static_params(2));
    ASSERT_TRUE(run.ok());
    run.protocol(PKind::ParticipantReplied, 1, 1);
    ASSERT_TRUE(run.matches());
    EXPECT_TRUE(run.monitor().value());
    run.finish(5);
    ASSERT_TRUE(run.matches());
    EXPECT_EQ(run.monitor().violations_total(), 1u);
  }
}

bool top_stable(const std::string& text) {
  const auto parsed = pltl::parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  const auto compiled = pltl::compile(*parsed.formula, static_params(2));
  EXPECT_TRUE(compiled.ok()) << compiled.error;
  return compiled.compiled.top_stable;
}

TEST(PltlClasses, EachRuleAtAnEventFreePosition) {
  // Stable: at an event-free position (events and `init` false, fluents
  // unchanged, no flip) the root keeps its committed value and every
  // operator state survives.
  const struct {
    const char* text;
    bool stable;
  } cases[] = {
      {"alive(1)", true},
      {"true", false},  // constant, not its committed value
      {"beat", false},
      {"init", false},
      {"!beat", false},
      {"alive(1) && member(1)", true},
      {"alive(1) && !beat", false},  // its commit may have seen beat
      {"alive(1) || beat", false},
      {"alive(1) <-> member(1)", true},
      {"beat <-> lost", false},
      {"alive(1) <-> beat", false},
      {"previously alive(1)", false},  // reads the last commit's operand
      {"beat && previously alive(1)", false},
      {"previously beat", false},
      {"historically alive(1)", true},
      {"historically beat", false},
      {"!c_recv_beat(1) since beat", true},
      {"c_recv_beat(1) since beat", false},
      {"alive(1) since beat", false},
      {"alive(1) since member(1)", true},
      {"beat since member(1)", false},
      {"true since (beat && previously (true since beat))", true},
      // The root keeps its value, but `previously reply(1)` does not.
      {"true since (beat && previously reply(1))", false},
      {"init since alive(1)", false},
      {"once beat", true},
      {"once[<= 3] beat", false},
      {"once[<= 3] alive(1)", true},
      {"holds[> 3] alive(1)", true},
      {"holds[> 3] true", false},
      {"holds[> 3] beat", false},
      {"before[<= 3] alive(1)", false},  // never stable
      {"beat -> before[<= 3] lost", false},
      {"forall p: alive(p)", true},  // an expansion's value reads as kept
  };
  for (const auto& c : cases) {
    EXPECT_EQ(top_stable(c.text), c.stable) << c.text;
  }
}

TEST(PltlClasses, ShippedFormulasTakeTheFastPaths) {
  // Every unit of r1, r3 and s2 is stable, so only events that name a
  // unit and due flips evaluate anything; r2's `before` is never
  // stable, so the event after its operand held evaluates it again.
  for (const int n : {1, 3, 200}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    for (const auto& spec : pltl::shipped_monitor_specs()) {
      SCOPED_TRACE(spec.name);
      const auto parsed = pltl::parse(spec.text);
      ASSERT_TRUE(parsed.ok());
      const auto compiled = pltl::compile(*parsed.formula, static_params(n));
      ASSERT_TRUE(compiled.ok());
      const pltl::Compiled& c = compiled.compiled;
      if (spec.name == "r2") {
        EXPECT_FALSE(c.top_stable);
        EXPECT_TRUE(c.expansions.empty());
        continue;
      }
      EXPECT_TRUE(c.top_stable);
      std::size_t instances = 0;
      for (const auto& expansion : c.expansions) {
        for (const auto& range : expansion.instances) {
          EXPECT_TRUE(range.stable) << "instance " << instances;
          ++instances;
        }
      }
      const std::size_t expanded = spec.name == "r1" ? 0 : n;
      EXPECT_EQ(instances, expanded);
    }
  }
}

TEST(PltlFuzz, AnEventWakesTheInstancesThatNameItsParticipant) {
  // alive(p) and reply(p) share one wake entry per participant; the
  // reply must wake instance p although the fluent was read first.
  Lockstep run("forall p: alive(p) -> !reply(p)", static_params(2));
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run.monitor().value());
  const struct {
    int node;
    sim::Time at;
    bool expect;
  } steps[] = {{1, 1, false}, {0, 2, true}, {2, 3, false}, {1, 3, false},
               {0, 4, true}};
  for (const auto& step : steps) {
    run.protocol(PKind::ParticipantReplied, step.node, step.at);
    ASSERT_TRUE(run.matches()) << "t=" << step.at;
    EXPECT_EQ(run.monitor().value(), step.expect) << "t=" << step.at;
  }
}

TEST(PltlFuzz, AnInnerQuantifierShadowsTheOuterVariable) {
  // The inner `p` rebinds the name: reply(p) inside it ranges over all
  // participants, while alive(p) keeps the outer binding.
  Lockstep run("forall p: alive(p) -> (exists p: once reply(p))",
               static_params(3));
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run.monitor().value());
  run.protocol(PKind::ParticipantCrashed, 3, 1);
  ASSERT_TRUE(run.matches());
  EXPECT_FALSE(run.monitor().value());
  run.protocol(PKind::ParticipantReplied, 2, 2);
  ASSERT_TRUE(run.matches());
  EXPECT_TRUE(run.monitor().value());
}

TEST(PltlFuzz, JoinValuesFoldTheCommittedInstances) {
  // The joins of an expansion are never evaluated; value_at still
  // reports each partial fold.
  const auto params = static_params(3);
  const auto parsed = pltl::parse("forall p: once c_recv_beat(p)");
  ASSERT_TRUE(parsed.ok());
  const auto compiled = pltl::compile(*parsed.formula, params);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  ASSERT_EQ(compiled.compiled.expansions.size(), 1u);
  const auto& expansion = compiled.compiled.expansions.front();
  ASSERT_EQ(expansion.instances.size(), 3u);
  EXPECT_EQ(expansion.instances[0].join, -1);
  EXPECT_EQ(expansion.instances[2].join, expansion.result());
  const auto m = monitor_for("forall p: once c_recv_beat(p)", params);
  const auto root = [&](int k) {
    return m->value_at(static_cast<std::size_t>(
        expansion.instances[static_cast<std::size_t>(k)].root));
  };
  const auto join = [&](int k) {  // folds instances 0..k
    return m->value_at(static_cast<std::size_t>(
        expansion.instances[static_cast<std::size_t>(k)].join));
  };
  m->on_protocol_event(pev(PKind::CoordinatorReceivedBeat, 1, 1));
  m->on_protocol_event(pev(PKind::CoordinatorReceivedBeat, 3, 2));
  EXPECT_TRUE(root(0));
  EXPECT_FALSE(root(1));
  EXPECT_TRUE(root(2));
  EXPECT_FALSE(join(1));
  EXPECT_FALSE(join(2));
  m->on_protocol_event(pev(PKind::CoordinatorReceivedBeat, 2, 3));
  EXPECT_TRUE(join(1));
  EXPECT_TRUE(join(2));
  EXPECT_TRUE(m->value());
}

// --- shipped formulas vs hand-written monitors on chaos runs --------------

struct VerdictPair {
  bool r1 = false, r2 = false, r3 = false, s2 = false;
};

VerdictPair monitor_verdicts(const chaos::RunResult& run) {
  VerdictPair v;
  for (const auto& violation : run.violations) {
    if (violation.requirement == 1) v.r1 = true;
    if (violation.requirement == 2) v.r2 = true;
    if (violation.requirement == 3) v.r3 = true;
    if (violation.requirement == 4 &&
        violation.detail.find("never reached suspicion threshold") !=
            std::string::npos) {
      v.s2 = true;
    }
  }
  return v;
}

VerdictPair formula_verdicts(const chaos::RunResult& run) {
  VerdictPair v;
  for (const auto& violation : run.formula_violations) {
    if (violation.requirement == 1) v.r1 = true;
    if (violation.requirement == 2) v.r2 = true;
    if (violation.requirement == 3) v.r3 = true;
    if (violation.requirement == 4) v.s2 = true;
  }
  return v;
}

/// Runs `spec` with the shipped formulas attached, expects their
/// verdicts to equal the hand-written monitors', and returns the latter.
VerdictPair expect_verdicts_match(const chaos::RunSpec& spec) {
  const auto formulas = pltl::shipped_monitor_specs();
  const chaos::RunResult run =
      chaos::run_chaos(spec, nullptr, false, false, &formulas);
  const VerdictPair mon = monitor_verdicts(run);
  const VerdictPair fml = formula_verdicts(run);
  EXPECT_EQ(mon.r1, fml.r1) << "R1 verdict diverged";
  EXPECT_EQ(mon.r2, fml.r2) << "R2 verdict diverged";
  EXPECT_EQ(mon.r3, fml.r3) << "R3 verdict diverged";
  EXPECT_EQ(mon.s2, fml.s2) << "S2 verdict diverged";
  return mon;
}

TEST(PltlEquivalence, ShippedFormulasMatchMonitorsOnSeededRuns) {
  constexpr proto::Variant kVariants[] = {
      proto::Variant::Binary,   proto::Variant::RevisedBinary,
      proto::Variant::TwoPhase, proto::Variant::Static,
      proto::Variant::Expanding, proto::Variant::Dynamic};
  for (const auto variant : kVariants) {
    for (const bool out_of_spec : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        chaos::RunSpec spec;
        spec.variant = variant;
        spec.tmin = 4;
        spec.tmax = 10;
        spec.participants = proto::variant_is_multi(variant) ? 3 : 1;
        spec.seed = seed;
        spec.horizon =
            chaos::campaign_horizon(spec.timing(), variant, spec.fixed_bounds);
        spec.schedule = chaos::generate_schedule(spec, out_of_spec);
        SCOPED_TRACE(std::string{to_string(variant)} +
                     (out_of_spec ? " oos" : " ok") + " seed " +
                     std::to_string(seed));
        expect_verdicts_match(spec);
      }
    }
  }
}

TEST(PltlEquivalence, ShippedFormulasMatchMonitorsOnTheCorpus) {
  namespace fs = std::filesystem;
  const fs::path root{AHB_CORPUS_DIR};
  ASSERT_TRUE(fs::exists(root));
  int artifacts = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".jsonl") {
      continue;
    }
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream in{entry.path()};
    std::ostringstream slurped;
    slurped << in.rdbuf();
    const auto spec = chaos::parse_run(slurped.str());
    ASSERT_TRUE(spec.has_value());
    expect_verdicts_match(*spec);
    ++artifacts;
  }
  EXPECT_GT(artifacts, 0);
}

// --- sparse evaluation at scale --------------------------------------------

TEST(PltlScale, SteadyRoundEvaluatesLinearlyManyInstances) {
  constexpr int kN = 1000;
  // Per steady round: s2 evaluates every instance at the beat (a
  // shared atom) and each reply's own instance at the reply's position,
  // about 2n in all. Every s2 instance is stable, so the position after
  // an event evaluates nothing, and no check pass does either while no
  // member is stopped; r3's instances stay settled; r1 and r2 have no
  // quantifier. The dense evaluator did ~2 * events * n instance bodies
  // per round instead, and the evaluator that re-evaluated unsettled
  // instances at both passes of the next position ~6n.
  constexpr std::uint64_t kPerParticipant = 3;
  const pltl::BindParams params{proto::Variant::Static, proto::Timing{4, 10},
                                true, kN, 2};
  std::vector<std::unique_ptr<pltl::FormulaMonitor>> monitors;
  for (const auto& spec : pltl::shipped_monitor_specs()) {
    auto made = pltl::make_monitor(spec, params);
    ASSERT_TRUE(made.ok()) << made.error;
    monitors.push_back(std::move(made.monitor));
  }
  hb::ClusterConfig config;
  config.protocol.variant = proto::Variant::Static;
  config.protocol.tmin = 4;
  config.protocol.tmax = 10;
  config.protocol.fixed_bounds = true;
  config.participants = kN;
  config.max_delay = -1;  // in-spec random delay
  config.seed = 7;
  hb::ScaleCluster cluster(config);
  for (const auto& monitor : monitors) cluster.add_sink(monitor.get());
  cluster.start();
  sim::Time horizon = 1 + 2 * config.protocol.tmax;  // past the first beat
  cluster.run_until(horizon);

  const auto total = [&](auto counter) {
    std::uint64_t sum = 0;
    for (const auto& monitor : monitors) sum += ((*monitor).*counter)();
    return sum;
  };
  const std::uint64_t evaluated_before =
      total(&pltl::FormulaMonitor::instances_evaluated);
  std::vector<std::uint64_t> passes_before;
  for (const auto& monitor : monitors) {
    passes_before.push_back(monitor->passes_evaluated());
  }
  const std::uint64_t events_before = total(&pltl::FormulaMonitor::events_seen);
  const std::uint64_t beats_before = cluster.stats().beats;
  horizon += config.protocol.tmax;
  cluster.run_until(horizon);
  const std::uint64_t evaluated =
      total(&pltl::FormulaMonitor::instances_evaluated) - evaluated_before;

  EXPECT_EQ(cluster.stats().beats - beats_before,
            static_cast<std::uint64_t>(kN));
  EXPECT_GT(total(&pltl::FormulaMonitor::events_seen) - events_before,
            static_cast<std::uint64_t>(kN));
  EXPECT_GE(evaluated, static_cast<std::uint64_t>(kN));  // the beat wakes s2
  EXPECT_LE(evaluated, kPerParticipant * kN) << evaluated;
  for (std::size_t i = 0; i < monitors.size(); ++i) {
    const auto& monitor = monitors[i];
    EXPECT_EQ(monitor->violations_total(), 0u) << monitor->name();
    // r1's top range and r3's instances read only fluents, which a
    // steady round leaves alone: every pass is skipped.
    if (monitor->name() == "r1" || monitor->name() == "r3") {
      EXPECT_EQ(monitor->passes_evaluated(), passes_before[i])
          << monitor->name();
    }
  }
}

TEST(PltlScale, S2WorkOnTheStaticMissionStream) {
  // s2 alone on the stream of the static seed-1 mission that the chaos
  // benchmark's jobs run (2 participants, 2 * 10^6 ticks, ten fault
  // cycles). Every s2 unit is stable: a beat evaluates both instances,
  // a reply its own, and no check pass evaluates anything until a
  // stopped member's `holds` flips. Counting every unsettled instance
  // twice, the evaluator did 220,698 instance bodies in 132,418 passes.
  chaos::MissionOptions options;
  options.spec.variant = proto::Variant::Static;
  options.spec.tmin = 4;
  options.spec.tmax = 10;
  options.spec.participants = 2;
  options.spec.seed = 1;
  options.spec.horizon = 2'000'000;
  options.profile.cycles = 10;
  chaos::RunSpec spec = options.spec;
  spec.schedule = chaos::generate_schedule(spec, options.profile);
  const pltl::BindParams params{spec.variant, spec.timing(), spec.fixed_bounds,
                                spec.participants, 2};
  const auto s2 =
      monitor_for(std::string{pltl::find_shipped("s2")->text}, params);
  hb::ScaleCluster cluster(chaos::cluster_config_for(spec));
  cluster.add_sink(s2.get());
  chaos::schedule_actions(cluster, spec);
  cluster.start();
  cluster.run_until(spec.horizon);
  cluster.sinks().finish(spec.horizon);
  EXPECT_EQ(s2->violations_total(), 0u);
  // The stream's fingerprint.
  EXPECT_EQ(s2->events_seen(), 66'210u);
  // Measured: 88,283 instance bodies in 66,211 passes.
  EXPECT_LE(s2->instances_evaluated(), 90'000u);
  EXPECT_LE(s2->passes_evaluated(), 67'000u);
}

chaos::RunSpec crash_spec_at_scale() {
  chaos::RunSpec spec;
  spec.variant = proto::Variant::Static;
  spec.tmin = 4;
  spec.tmax = 10;
  spec.participants = 200;
  spec.seed = 3;
  spec.horizon = 600;
  chaos::FaultAction participant;
  participant.kind = chaos::FaultKind::CrashParticipant;
  participant.at = 150;
  participant.a = 57;
  chaos::FaultAction coordinator;
  coordinator.kind = chaos::FaultKind::CrashCoordinator;
  coordinator.at = 350;
  spec.schedule.actions = {participant, coordinator};
  return spec;
}

TEST(PltlScale, ShippedFormulasMatchMonitorsAtTwoHundredNodes) {
  // In spec: a participant crash, then a coordinator crash. Both stacks
  // must hold every requirement.
  const chaos::RunSpec spec = crash_spec_at_scale();
  const VerdictPair in_spec = expect_verdicts_match(spec);
  EXPECT_FALSE(in_spec.r1 || in_spec.r2 || in_spec.r3 || in_spec.s2);

  // Out of spec: the same crashes with participant 9's clock at half
  // rate, so its inactivation after the coordinator crash comes late
  // (R3); both stacks must flag the same requirements.
  chaos::RunSpec slow = spec;
  chaos::FaultAction drift;
  drift.kind = chaos::FaultKind::SetDrift;
  drift.at = 100;
  drift.a = 9;
  drift.d1 = 1;
  drift.d2 = 2;
  slow.schedule.actions.insert(slow.schedule.actions.begin(), drift);
  EXPECT_TRUE(expect_verdicts_match(slow).r3);
}

// --- campaigns and missions: formulas ride along without perturbing -------

TEST(PltlEquivalence, CampaignFingerprintInvariantUnderFormulas) {
  chaos::CampaignOptions options;
  options.runs_per_config = 2;
  options.shrink = false;
  const chaos::CampaignResult plain = chaos::run_campaign(options);
  options.formulas = pltl::shipped_monitor_specs();
  const chaos::CampaignResult with = chaos::run_campaign(options);
  EXPECT_EQ(plain.fingerprint, with.fingerprint);
  EXPECT_EQ(plain.runs, with.runs);
  EXPECT_EQ(plain.violating_runs, with.violating_runs);
  EXPECT_EQ(with.formula_violations, 0u)
      << "in-spec campaign tripped a shipped formula";
  EXPECT_EQ(with.formula_violating_runs, 0u);
}

TEST(PltlEquivalence, OutOfSpecCampaignTripsFormulasAlongsideMonitors) {
  chaos::CampaignOptions options;
  options.runs_per_config = 2;
  options.out_of_spec = true;
  options.shrink = false;
  const chaos::CampaignResult plain = chaos::run_campaign(options);
  options.formulas = pltl::shipped_monitor_specs();
  const chaos::CampaignResult with = chaos::run_campaign(options);
  EXPECT_EQ(plain.fingerprint, with.fingerprint);
  EXPECT_EQ(plain.violating_runs, with.violating_runs);
  EXPECT_GT(with.formula_violating_runs, 0u)
      << "out-of-spec faults never tripped a formula";
}

TEST(PltlEquivalence, TenMillionTickMissionCleanWithFormulasAttached) {
  chaos::MissionOptions options;
  options.spec.variant = proto::Variant::Dynamic;
  options.spec.tmin = 4;
  options.spec.tmax = 10;
  options.spec.participants = 3;
  options.spec.seed = 1;
  options.spec.horizon = 10'000'000;
  options.profile.cycles = 10;
  const chaos::MissionResult plain = chaos::run_mission(options);
  options.formulas = pltl::shipped_monitor_specs();
  const chaos::MissionResult with = chaos::run_mission(options);
  EXPECT_EQ(plain.fingerprint, with.fingerprint)
      << "attaching formulas perturbed the mission";
  EXPECT_EQ(with.violations_total, 0u);
  EXPECT_EQ(with.formula_violations_total, 0u)
      << (with.formula_violations.empty()
              ? std::string{}
              : with.formula_violations.front().detail);
}

// --- model backend: the same formula text, checked exhaustively -----------

TEST(PltlModel, R1WatchdogFormulaReproducesTable1Verdicts) {
  const auto shipped = pltl::find_shipped("r1_watchdog");
  ASSERT_NE(shipped, nullptr);
  struct Point {
    int tmin, tmax;
    bool fixed;
  };
  for (const Point point : {Point{2, 10, false}, Point{6, 10, false},
                            Point{2, 10, true}}) {
    SCOPED_TRACE("tmin=" + std::to_string(point.tmin) +
                 " tmax=" + std::to_string(point.tmax) +
                 (point.fixed ? " fixed" : ""));
    models::BuildOptions options;
    options.timing = {point.tmin, point.tmax};
    options.fixed = point.fixed;
    const bool expect_r1 =
        point.fixed
            ? proto::expected_verdicts_fixed(proto::Variant::Binary,
                                             options.timing.to_proto())
                  .r1
            : proto::expected_verdicts(proto::Variant::Binary,
                                       options.timing.to_proto())
                  .r1;

    auto formula_model = models::build_formula_model(
        models::Flavor::Binary, options, shipped->text);
    ASSERT_TRUE(formula_model.ok()) << formula_model.error;

    // Way 1 of the exhaustive pair: reachability of a violating state.
    mc::Explorer explorer(formula_model.model->net());
    const auto reach = explorer.reach(formula_model.violation);
    ASSERT_TRUE(reach.found || reach.complete);
    EXPECT_EQ(reach.found, !expect_r1);

    // Way 2: NDFS accepting cycle through the latched violation.
    const auto cycle = mc::find_accepting_cycle(formula_model.model->net(),
                                                formula_model.accepting);
    ASSERT_TRUE(cycle.cycle_found || cycle.complete);
    EXPECT_EQ(cycle.cycle_found, !expect_r1);

    // Cross-check against the hand-built watchdog verdict.
    options.r1_monitor = true;
    const auto verdicts =
        models::verify_requirements(models::Flavor::Binary, options);
    EXPECT_EQ(verdicts.r1, expect_r1);
  }
}

TEST(PltlModel, MultiFlavorWatchdogVerdict) {
  const auto shipped = pltl::find_shipped("r1_watchdog");
  ASSERT_NE(shipped, nullptr);
  models::BuildOptions options;
  options.timing = {2, 4};
  options.participants = 2;
  const bool expect_r1 =
      proto::expected_verdicts(proto::Variant::Static,
                               options.timing.to_proto())
          .r1;
  auto formula_model = models::build_formula_model(models::Flavor::Static,
                                                   options, shipped->text);
  ASSERT_TRUE(formula_model.ok()) << formula_model.error;
  mc::Explorer explorer(formula_model.model->net());
  const auto reach = explorer.reach(formula_model.violation);
  ASSERT_TRUE(reach.found || reach.complete);
  EXPECT_EQ(reach.found, !expect_r1);
}

TEST(PltlModel, UnsupportedFragmentIsRejectedWithDiagnostics) {
  models::BuildOptions options;
  options.timing = {4, 10};
  const char* unsupported[] = {
      "historically beat",        // unbounded-history operator
      "once c_recv_beat",         // unbounded once
      "c_recv_beat",              // bare event atom at the root
      "alive(1)",                 // participant fluent
      "within[<= 4] coord_live",  // once over a state predicate
      "within[<= 4] (c_recv_beat && init)",  // conjunction of atoms
      "not a formula ((",         // parse error surfaces too
  };
  for (const char* text : unsupported) {
    SCOPED_TRACE(text);
    const auto result =
        models::build_formula_model(models::Flavor::Binary, options, text);
    EXPECT_FALSE(result.ok());
    EXPECT_FALSE(result.error.empty());
  }
  // And the supported fragment builds even when stated with quantifiers
  // (the compiler expands them before the lowering sees the formula).
  options.participants = 2;
  const auto quantified = models::build_formula_model(
      models::Flavor::Static, options,
      "forall p: coord_live -> within[<= r1_bound] (c_recv_beat(p) || init)");
  EXPECT_TRUE(quantified.ok()) << quantified.error;
}

}  // namespace
}  // namespace ahb
