#include "chaos/runner.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <string_view>

#include "rv/suspicion.hpp"
#include "util/contracts.hpp"

namespace ahb::chaos {

namespace {

std::string_view kind_name(hb::ProtocolEvent::Kind kind) {
  using Kind = hb::ProtocolEvent::Kind;
  switch (kind) {
    case Kind::CoordinatorBeat: return "beat";
    case Kind::CoordinatorReceivedBeat: return "c-recv-beat";
    case Kind::CoordinatorReceivedLeave: return "c-recv-leave";
    case Kind::CoordinatorInactivated: return "c-inactive";
    case Kind::CoordinatorCrashed: return "c-crash";
    case Kind::ParticipantReceivedBeat: return "p-recv-beat";
    case Kind::ParticipantReplied: return "reply";
    case Kind::ParticipantJoinBeat: return "join-beat";
    case Kind::ParticipantLeft: return "leave";
    case Kind::ParticipantInactivated: return "p-inactive";
    case Kind::ParticipantCrashed: return "p-crash";
    case Kind::ParticipantRejoined: return "rejoin";
  }
  return "?";
}

/// Records the protocol events of a run into its RunResult: the raw
/// events and/or the serialized trace ("at kind node msg_id" lines).
class Recorder final : public rv::EventSink {
 public:
  Recorder(RunResult& result, bool trace, bool events)
      : result_(result), trace_(trace), events_(events) {}

  void on_protocol_event(const hb::ProtocolEvent& event) override {
    if (events_) result_.events.push_back(event);
    if (trace_) {
      // "at kind node msg_id\n", formatted in place: at most 20 + 12 +
      // 11 + 20 digits and characters plus four separators.
      std::string& trace = result_.trace;
      const std::size_t start = trace.size();
      trace.resize(start + 80);
      char* const end = trace.data() + trace.size();
      char* out = std::to_chars(trace.data() + start, end, event.at).ptr;
      *out++ = ' ';
      const std::string_view kind = kind_name(event.kind);
      out = std::copy(kind.begin(), kind.end(), out);
      *out++ = ' ';
      out = std::to_chars(out, end, event.node).ptr;
      *out++ = ' ';
      out = std::to_chars(out, end, event.msg_id).ptr;
      *out++ = '\n';
      trace.resize(static_cast<std::size_t>(out - trace.data()));
    }
  }

 private:
  RunResult& result_;
  bool trace_;
  bool events_;
};

/// What a formula's parameters resolve against in a run of `spec`.
rv::pltl::BindParams bind_params(const RunSpec& spec) {
  return {spec.variant, spec.timing(), spec.fixed_bounds, spec.participants,
          2};
}

bool valid_node(const RunSpec& spec, int id) {
  return id >= 0 && id <= spec.participants;
}

bool valid_participant(const RunSpec& spec, int id) {
  return id >= 1 && id <= spec.participants;
}

/// The one-field link change a link action stands for (a storm: its
/// burst), operands clamped to valid probabilities and delay ranges.
sim::LinkChange link_change(const FaultAction& action) {
  using Field = sim::LinkChange::Field;
  const auto unit = [](double p) { return std::clamp(p, 0.0, 1.0); };
  sim::LinkChange change;
  switch (action.kind) {
    case FaultKind::SetLoss:
      change.field = Field::Loss;
      change.p = unit(action.p);
      break;
    case FaultKind::SetBurst:
    case FaultKind::AsymmetricStorm:
      change.field = Field::Burst;
      change.p = unit(action.p);
      change.q = unit(action.q);
      change.r = unit(action.r);
      break;
    case FaultKind::SetDelay:
      change.field = Field::Delay;
      change.lo = std::max<Time>(action.d1, 0);
      change.hi = std::max(change.lo, action.d2);
      break;
    case FaultKind::SetDuplication:
      change.field = Field::Duplication;
      change.p = unit(action.p);
      break;
    case FaultKind::CorruptPayload:
      change.field = Field::Corruption;
      change.p = unit(action.p);
      break;
    case FaultKind::LinkUp:
    case FaultKind::Heal:
      change.field = Field::Up;
      break;
    case FaultKind::LinkDown:
    case FaultKind::Partition:
      change.field = Field::Down;
      break;
    default:
      AHB_EXPECTS(false && "not a link action");
  }
  return change;
}

/// One directed half of an asymmetric storm at `at`: burst (p,q,r) on
/// the uplink (member -> coordinator, d2 == 0) or downlink of every
/// member in [lo, hi] when it starts, burst-off when it ends.
void schedule_storm(hb::ScaleCluster& cluster, const FaultAction& action,
                    Time at, int lo, int hi, bool start) {
  constexpr sim::LinkChange kBurstOff{.field = sim::LinkChange::Field::Burst,
                                      .p = 0.0, .q = 1.0, .r = 0.0};
  const sim::LinkChange change = start ? link_change(action) : kBurstOff;
  for (int i = lo; i <= hi; ++i) {
    const int from = action.d2 == 0 ? i : 0;
    const int to = action.d2 == 0 ? 0 : i;
    cluster.change_link_at(at, from, to, change);
  }
}

/// Schedules one action. Malformed operands (node ids outside the
/// cluster, non-positive drift rates, storm or churn offsets that
/// overflow the time range) make the action a no-op rather than an
/// abort: shrunk and hand-edited schedules must stay safe to replay.
void schedule_action(hb::ScaleCluster& cluster, const RunSpec& spec,
                     const FaultAction& action) {
  switch (action.kind) {
    case FaultKind::SetLoss:
    case FaultKind::SetBurst:
    case FaultKind::SetDelay:
    case FaultKind::SetDuplication:
    case FaultKind::CorruptPayload:
    case FaultKind::LinkDown:
    case FaultKind::LinkUp:
      if (!valid_node(spec, action.a) || !valid_node(spec, action.b)) return;
      cluster.change_link_at(action.at, action.a, action.b,
                             link_change(action));
      break;
    case FaultKind::Partition:
    case FaultKind::Heal: {
      const int lo = std::max(action.a, 1);
      const int hi = std::min(action.b, spec.participants);
      if (lo > hi) return;
      // Both directions between the coordinator and each member.
      const sim::LinkChange change = link_change(action);
      for (int i = lo; i <= hi; ++i) {
        cluster.change_link_at(action.at, 0, i, change);
        cluster.change_link_at(action.at, i, 0, change);
      }
      break;
    }
    case FaultKind::CrashParticipant:
      if (!valid_participant(spec, action.a)) return;
      cluster.crash_participant_at(action.a, action.at);
      break;
    case FaultKind::CrashCoordinator:
      cluster.crash_coordinator_at(action.at);
      break;
    case FaultKind::Leave:
      if (!valid_participant(spec, action.a)) return;
      cluster.leave_at(action.a, action.at);
      break;
    case FaultKind::Rejoin:
      if (!valid_participant(spec, action.a)) return;
      cluster.rejoin_at(action.a, action.at);
      break;
    case FaultKind::SetDrift:
      if (!valid_node(spec, action.a) || action.d1 <= 0 || action.d2 <= 0) {
        return;
      }
      cluster.set_drift_at(action.a, action.at, action.d1, action.d2);
      break;
    case FaultKind::SetClockOffset:
      if (!valid_node(spec, action.a) || action.d1 == 0) return;
      cluster.corrupt_clock_at(action.a, action.at, action.d1);
      break;
    case FaultKind::WrapClock:
      if (!valid_node(spec, action.a) || action.d1 < 0) return;
      cluster.wrap_clock_at(action.a, action.at,
                            static_cast<std::uint64_t>(action.d1));
      break;
    case FaultKind::AsymmetricStorm: {
      const int lo = std::max(action.a, 1);
      const int hi = std::min(action.b, spec.participants);
      Time end = 0;
      if (lo > hi || action.d1 <= 0 ||
          __builtin_add_overflow(action.at, action.d1, &end)) {
        return;
      }
      schedule_storm(cluster, action, action.at, lo, hi, true);
      schedule_storm(cluster, action, end, lo, hi, false);
      break;
    }
    case FaultKind::ChurnStorm: {
      const int lo = std::max(action.a, 1);
      const int hi = std::min(action.b, spec.participants);
      if (lo > hi || action.d1 < 0 || action.d2 < 0) return;
      // The last member leaves at at + (hi - lo) * d1 and rejoins d2
      // later; both must be representable times.
      Time last_leave = 0;
      Time last_rejoin = 0;
      if (__builtin_mul_overflow(static_cast<Time>(hi - lo), action.d1,
                                 &last_leave) ||
          __builtin_add_overflow(action.at, last_leave, &last_leave) ||
          __builtin_add_overflow(last_leave, action.d2, &last_rejoin)) {
        return;
      }
      for (int i = lo; i <= hi; ++i) {
        const Time leave = action.at + static_cast<Time>(i - lo) * action.d1;
        cluster.leave_at(i, leave);
        if (action.d2 > 0) cluster.rejoin_at(i, leave + action.d2);
      }
      break;
    }
  }
}

}  // namespace

void schedule_actions(hb::ScaleCluster& cluster, const RunSpec& spec) {
  for (const auto& action : spec.schedule.actions) {
    schedule_action(cluster, spec, action);
  }
}

hb::ClusterConfig cluster_config_for(const RunSpec& spec) {
  hb::ClusterConfig config;
  config.protocol = hb::Config{spec.tmin, spec.tmax, spec.variant,
                               spec.fixed_bounds};
  config.participants = spec.participants;
  config.seed = spec.seed;
  config.receive_priority = spec.receive_priority;
  config.wire_validation = spec.wire_validation;
  config.clock_guard = spec.clock_guard;
  return config;
}

std::vector<rv::pltl::NodePtr> parse_formulas(
    const std::vector<rv::pltl::FormulaSpec>& specs) {
  std::vector<rv::pltl::NodePtr> parsed;
  parsed.reserve(specs.size());
  for (const auto& formula_spec : specs) {
    rv::pltl::ParseResult result = rv::pltl::parse(formula_spec.text);
    if (!result.ok()) {
      std::fprintf(stderr,
                   "run_chaos: parse error in formula '%s' at offset %zu: "
                   "%s\n",
                   formula_spec.name.c_str(), result.error_at,
                   result.error.c_str());
    }
    AHB_EXPECTS(result.ok());
    parsed.push_back(std::move(result.formula));
  }
  return parsed;
}

FormulaPrograms compile_formulas(
    const std::vector<rv::pltl::FormulaSpec>& specs,
    const std::vector<rv::pltl::NodePtr>& parsed, const RunSpec& spec) {
  AHB_EXPECTS(parsed.size() == specs.size());
  const rv::pltl::BindParams params = bind_params(spec);
  FormulaPrograms programs;
  programs.specs = &specs;
  programs.compiled.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    rv::pltl::CompileResult result = rv::pltl::compile(*parsed[i], params);
    if (!result.ok()) {
      std::fprintf(stderr, "run_chaos: compile error in formula '%s': %s\n",
                   specs[i].name.c_str(), result.error.c_str());
    }
    AHB_EXPECTS(result.ok());
    programs.compiled.push_back(
        std::make_shared<const rv::pltl::Compiled>(std::move(result.compiled)));
  }
  return programs;
}

RunResult run_chaos(const RunSpec& spec, const rv::MonitorBounds* bounds,
                    bool record_trace, bool record_events,
                    const std::vector<rv::pltl::FormulaSpec>* formulas) {
  if (formulas == nullptr) {
    return run_chaos(spec, bounds, record_trace, record_events,
                     FormulaPrograms{});
  }
  const FormulaPrograms programs =
      compile_formulas(*formulas, parse_formulas(*formulas), spec);
  return run_chaos(spec, bounds, record_trace, record_events, programs);
}

RunResult run_chaos(const RunSpec& spec, const rv::MonitorBounds* bounds,
                    bool record_trace, bool record_events,
                    const FormulaPrograms& formulas) {
  AHB_EXPECTS(spec.participants >= 1);
  AHB_EXPECTS(spec.timing().valid());
  AHB_EXPECTS(spec.horizon > 0);

  hb::ScaleCluster cluster(cluster_config_for(spec));

  const rv::MonitorBounds monitor_bounds =
      bounds != nullptr ? *bounds
                        : rv::MonitorBounds::defaults(
                              spec.timing(), spec.variant, spec.fixed_bounds);
  rv::RequirementMonitor::Config monitor_config{spec.variant, spec.timing(),
                                                spec.fixed_bounds,
                                                spec.participants};
  rv::RequirementMonitor monitor(monitor_config, monitor_bounds);
  rv::SuspicionMonitor::Config suspicion_config;
  suspicion_config.variant = spec.variant;
  suspicion_config.timing = spec.timing();
  suspicion_config.participants = spec.participants;
  rv::SuspicionMonitor suspicion(suspicion_config, monitor_bounds);
  rv::AvailabilityStats availability(spec.participants);
  rv::IntegrityMonitor integrity;

  // The whole monitor stack rides the sink chain, next to the
  // trace/event recorder.
  monitor.attach(cluster);
  suspicion.attach(cluster);
  cluster.add_sink(&availability);
  integrity.attach(cluster);

  // Formula monitors ride the same chain; they read the event stream
  // without touching it, so traces (and campaign fingerprints) are
  // identical with or without them.
  AHB_EXPECTS(formulas.compiled.empty() ||
              (formulas.specs != nullptr &&
               formulas.specs->size() == formulas.compiled.size()));
  std::vector<std::unique_ptr<rv::pltl::FormulaMonitor>> formula_monitors;
  formula_monitors.reserve(formulas.compiled.size());
  for (std::size_t i = 0; i < formulas.compiled.size(); ++i) {
    const rv::pltl::FormulaSpec& formula_spec = (*formulas.specs)[i];
    formula_monitors.push_back(std::make_unique<rv::pltl::FormulaMonitor>(
        formulas.compiled[i], bind_params(spec), formula_spec.name,
        formula_spec.requirement));
    cluster.add_sink(formula_monitors.back().get());
  }

  RunResult result;
  result.out_of_spec = spec.out_of_spec();

  Recorder recorder{result, record_trace, record_events};
  if (record_trace || record_events) cluster.add_sink(&recorder);

  schedule_actions(cluster, spec);

  cluster.start();
  cluster.run_until(spec.horizon);
  cluster.sinks().finish(spec.horizon);

  result.violations = monitor.violations();
  result.violations.insert(result.violations.end(),
                           suspicion.violations().begin(),
                           suspicion.violations().end());
  result.violations.insert(result.violations.end(),
                           integrity.violations().begin(),
                           integrity.violations().end());
  for (const auto& formula_monitor : formula_monitors) {
    result.formula_violations.insert(result.formula_violations.end(),
                                     formula_monitor->violations().begin(),
                                     formula_monitor->violations().end());
  }
  result.availability = availability.summary();
  result.integrity = integrity.summary();
  result.net_stats = cluster.network_stats();
  result.all_inactive = cluster.all_inactive();
  return result;
}

}  // namespace ahb::chaos
