// Chaos-layer tests: the engine transport's reorder counter, per-message
// ids in the protocol-event stream, FaultSchedule serialization, run/
// campaign determinism, the in-spec campaign staying clean, the
// out-of-spec negative control firing + shrinking + replaying, and the
// mutation canary (a loosened monitor bound must silence the expected
// violation — the proof the monitors actually bite).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "chaos/campaign.hpp"
#include "hb/cluster_scale.hpp"
#include "rv/pltl/formulas.hpp"

namespace ahb::chaos {
namespace {

// --- The engine transport's reorder counter ------------------------------

// A delivery whose id is older than the newest id already delivered on
// its directed link overtook a later send. The counter is recomputed
// from the Delivered channel events and must match the engine's.
TEST(Network, ReorderedDeliveryCounted) {
  hb::ClusterConfig config;
  config.protocol = hb::Config{2, 8, proto::Variant::Binary, false};
  config.participants = 3;
  config.max_delay = 6;  // with duplicates: several beats in flight per link
  config.seed = 11;
  hb::ScaleCluster cluster{config};
  cluster.links().defaults().duplicate_probability = 0.5;
  struct ReorderLog final : rv::EventSink {
    std::uint32_t protocol_interest() const override { return 0; }
    std::uint32_t channel_interest() const override {
      return rv::channel_bit(sim::ChannelEvent::Kind::Delivered);
    }
    void on_channel_event(const sim::ChannelEvent& event) override {
      std::uint64_t& newest = newest_by_link[{event.from, event.to}];
      if (event.id < newest) {
        ++reordered;
      } else {
        newest = event.id;
      }
    }
    std::map<std::pair<int, int>, std::uint64_t> newest_by_link;
    std::uint64_t reordered = 0;
  } log;
  cluster.add_sink(&log);
  cluster.start();
  cluster.run_until(2000);
  EXPECT_GT(log.reordered, 0u);
  EXPECT_EQ(cluster.network_stats().reordered, log.reordered);
}

// Sends and deliveries of one message share its id, so the two are
// separately identifiable trace events — the groundwork nonzero-delay
// conformance replay needs.
TEST(Cluster, MessageIdsPairSendsWithDeliveries) {
  hb::ClusterConfig config;
  config.protocol = hb::Config{2, 8, proto::Variant::Binary, true};
  config.participants = 1;
  config.seed = 3;
  hb::ScaleCluster cluster{config};
  struct IdLog final : rv::EventSink {
    void on_protocol_event(const hb::ProtocolEvent& event) override {
      using Kind = hb::ProtocolEvent::Kind;
      switch (event.kind) {
        case Kind::CoordinatorBeat:
        case Kind::ParticipantReplied:
        case Kind::ParticipantJoinBeat:
          EXPECT_GT(event.msg_id, 0u);
          sent_ids.insert(event.msg_id);
          if (event.kind == Kind::ParticipantReplied) {
            reply_ids.push_back(event.msg_id);
          }
          break;
        case Kind::CoordinatorReceivedBeat:
          delivered_to_coordinator.push_back(event.msg_id);
          break;
        default:
          break;
      }
    }
    std::set<std::uint64_t> sent_ids;
    std::vector<std::uint64_t> reply_ids;
    std::vector<std::uint64_t> delivered_to_coordinator;
  } log;
  cluster.add_sink(&log);
  const auto& sent_ids = log.sent_ids;
  const auto& reply_ids = log.reply_ids;
  const auto& delivered_to_coordinator = log.delivered_to_coordinator;
  cluster.start();
  cluster.run_until(200);
  ASSERT_FALSE(reply_ids.empty());
  ASSERT_FALSE(delivered_to_coordinator.empty());
  // Ids are assigned monotonically at send time.
  for (std::size_t i = 1; i < reply_ids.size(); ++i) {
    EXPECT_LT(reply_ids[i - 1], reply_ids[i]);
  }
  // Every delivery observed at the coordinator is one of the sends.
  for (const std::uint64_t id : delivered_to_coordinator) {
    EXPECT_TRUE(sent_ids.contains(id));
  }
}

// --- FaultSchedule serialization -----------------------------------------

RunSpec sample_spec() {
  RunSpec spec;
  spec.variant = Variant::Dynamic;
  spec.tmin = 2;
  spec.tmax = 8;
  spec.participants = 3;
  spec.seed = 77;
  spec.horizon = 500;
  spec.schedule.actions = {
      {FaultKind::SetBurst, 10, 0, 2, 0.25, 0.5, 0.875, 0, 0},
      {FaultKind::Partition, 20, 1, 2, 0, 0, 0, 0, 0},
      {FaultKind::Heal, 44, 1, 2, 0, 0, 0, 0, 0},
      {FaultKind::CrashParticipant, 60, 1, 0, 0, 0, 0, 0, 0},
      {FaultKind::SetDrift, 70, 2, 0, 0, 0, 0, 3, 2},
  };
  return spec;
}

TEST(FaultSchedule, SerializeParseRoundTrip) {
  const RunSpec spec = sample_spec();
  const auto parsed = parse_run(serialize_run(spec));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, spec);
  // Serialization is canonical: a second round trip is byte-identical.
  EXPECT_EQ(serialize_run(*parsed), serialize_run(spec));
}

TEST(FaultSchedule, ParseRejectsMalformedInput) {
  EXPECT_FALSE(parse_run("").has_value());
  EXPECT_FALSE(parse_run("{\"schedule\": \"other\"}").has_value());
  EXPECT_FALSE(parse_run("{\"schedule\": \"ahb-chaos\", \"variant\": "
                         "\"binary\", \"tmin\": 1}")
                   .has_value());
  std::string text = serialize_run(sample_spec());
  const auto pos = text.find("set-drift");
  text.replace(pos, 9, "no-such-f");
  EXPECT_FALSE(parse_run(text).has_value());
}

TEST(FaultSchedule, ParseFailsClosedOnValuesARunCannotExecute) {
  // Each row either must not parse (values that used to parse and then
  // truncate, overflow or abort the run) or must parse into a run whose
  // overflowing storm/churn offsets are a no-op: its trace equals the
  // trace of the same header with no actions.
  const auto header = [](const std::string& participants,
                         const std::string& horizon,
                         const std::string& tmax = "8") {
    return "{\"schedule\": \"ahb-chaos\", \"variant\": \"dynamic\", "
           "\"tmin\": 2, \"tmax\": " + tmax + ", \"fixed_bounds\": true, "
           "\"receive_priority\": true, \"participants\": " +
           participants + ", \"seed\": 1, \"horizon\": " + horizon + "}\n";
  };
  const auto action = [](const std::string& kind, const std::string& at,
                         const std::string& a, const std::string& b,
                         const std::string& d1, const std::string& d2) {
    return "{\"kind\": \"" + kind + "\", \"at\": " + at + ", \"a\": " + a +
           ", \"b\": " + b + ", \"p\": 0.5, \"q\": 0.5, \"r\": 1, \"d1\": " +
           d1 + ", \"d2\": " + d2 + "}\n";
  };
  const std::string ok = header("3", "400");
  const std::string leave = action("leave", "50", "1", "0", "0", "0");
  const std::string kMax = "9223372036854775807";
  struct Row {
    const char* what;
    std::string text;
    bool parses;
  };
  const Row rows[] = {
      {"participants past INT_MAX", header("1099511627776", "400"), false},
      {"zero participants", header("0", "400"), false},
      {"zero horizon", header("3", "0"), false},
      {"negative horizon", header("3", "-5"), false},
      {"negative action time", ok + action("crash-participant", "-1", "1", "0",
                                           "0", "0"),
       false},
      {"node a past INT_MAX", ok + action("crash-participant", "5",
                                          "4294967297", "0", "0", "0"),
       false},
      {"node b below INT_MIN", ok + action("link-down", "5", "0",
                                           "-2147483649", "0", "0"),
       false},
      {"in-range leave", ok + action("leave", "50", "1", "0", "0", "0"), true},
      {"storm end overflows", ok + action("asymmetric-storm", "100", "1", "3",
                                          kMax, "0"),
       true},
      {"churn stagger overflows", ok + action("churn-storm", "100", "1", "3",
                                              "4611686018427387904", "10"),
       true},
      {"churn rejoin overflows", ok + action("churn-storm", "100", "1", "3",
                                             "1", kMax),
       true},
      {"drift numerator times horizon overflows",
       ok + action("set-drift", "10", "1", "0", "23058430092136940", "1"),
       false},
      {"drift denominator times horizon overflows",
       ok + action("set-drift", "10", "1", "0", "1", kMax), false},
      {"largest drift numerator that fits",
       ok + action("set-drift", "10", "1", "0", "23058430092136939", "1"),
       true},
      // Timing laws reach horizon + 8 * tmax, which must fit int64:
      // (2^63 - 1 - 400) / 8 = 1152921504606846925.
      {"timing laws overflow", header("3", "400", "4000000000000000000") + leave,
       false},
      {"timing laws one past the limit",
       header("3", "400", "1152921504606846926") + leave, false},
      {"largest tmax that fits", header("3", "400", "1152921504606846925") + leave,
       true},
  };
  const auto baseline = parse_run(ok);
  ASSERT_TRUE(baseline.has_value());
  const std::string baseline_trace = run_chaos(*baseline, nullptr, true).trace;
  for (const Row& row : rows) {
    SCOPED_TRACE(row.what);
    const auto spec = parse_run(row.text);
    ASSERT_EQ(spec.has_value(), row.parses);
    if (!spec) continue;
    const FaultKind kind = spec->schedule.actions.front().kind;
    if (kind == FaultKind::Leave || kind == FaultKind::SetDrift) {
      // In-range actions take effect: the run executes them (the
      // sanitize preset checks the clock arithmetic).
      EXPECT_GT(run_chaos(*spec).net_stats.sent, 0u);
      continue;
    }
    EXPECT_EQ(run_chaos(*spec, nullptr, true).trace, baseline_trace);
  }
}

TEST(FaultSchedule, OutOfSpecClassification) {
  const proto::Timing timing{4, 16};
  FaultAction action;
  action.kind = FaultKind::SetDelay;
  action.d2 = 2;  // == tmin/2: the round trip still fits in tmin
  EXPECT_FALSE(action.out_of_spec(timing));
  action.d2 = 3;
  EXPECT_TRUE(action.out_of_spec(timing));
  action.kind = FaultKind::SetDrift;
  action.d1 = 2;
  action.d2 = 2;  // identity rate
  EXPECT_FALSE(action.out_of_spec(timing));
  action.d2 = 1;
  EXPECT_TRUE(action.out_of_spec(timing));
  action.kind = FaultKind::SetLoss;
  action.p = 1.0;  // arbitrary loss is within the channel spec
  EXPECT_FALSE(action.out_of_spec(timing));
}

// --- determinism ----------------------------------------------------------

TEST(Determinism, SameSeedSameScheduleAndTrace) {
  RunSpec spec;
  spec.variant = Variant::Dynamic;
  spec.tmin = 2;
  spec.tmax = 4;
  spec.participants = 2;
  spec.seed = 11;
  spec.horizon = campaign_horizon(spec.timing(), spec.variant, true);
  const FaultSchedule once = generate_schedule(spec, false);
  const FaultSchedule twice = generate_schedule(spec, false);
  EXPECT_EQ(once, twice);
  spec.schedule = once;
  const RunResult a = run_chaos(spec, nullptr, true);
  const RunResult b = run_chaos(spec, nullptr, true);
  EXPECT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

TEST(Determinism, IdentityDriftIsANoop) {
  RunSpec spec;
  spec.variant = Variant::Binary;
  spec.tmin = 1;
  spec.tmax = 16;
  spec.seed = 5;
  spec.horizon = 200;
  const RunResult plain = run_chaos(spec, nullptr, true);
  spec.schedule.actions = {{FaultKind::SetDrift, 30, 1, 0, 0, 0, 0, 1, 1}};
  const RunResult drifted = run_chaos(spec, nullptr, true);
  EXPECT_EQ(plain.trace, drifted.trace);
  EXPECT_TRUE(drifted.violations.empty());
}

TEST(Determinism, CampaignFingerprintInvariantUnderThreads) {
  CampaignOptions options;
  options.runs_per_config = 3;
  options.shrink = false;
  options.threads = 1;
  const CampaignResult one = run_campaign(options);
  options.threads = 8;
  const CampaignResult eight = run_campaign(options);
  EXPECT_EQ(one.runs, eight.runs);
  EXPECT_EQ(one.fingerprint, eight.fingerprint);
  EXPECT_EQ(one.violating_runs, eight.violating_runs);
  EXPECT_EQ(one.totals.sent, eight.totals.sent);
}

TEST(Determinism, CanonicalCampaignFingerprintIsPinned) {
  // The 1008-run in-spec campaign over seeds 1..56 folds every run's
  // serialized spec and protocol trace: a change to the trace line
  // bytes, the engine or the schedule generator moves it.
  CampaignOptions options;
  options.runs_per_config = 56;
  options.shrink = false;
  options.formulas = rv::pltl::shipped_monitor_specs();
  const CampaignResult result = run_campaign(options);
  EXPECT_EQ(result.runs, 1008u);
  EXPECT_EQ(result.violating_runs, 0u);
  EXPECT_EQ(result.formula_violations, 0u);
  EXPECT_EQ(result.fingerprint, 0x5e154c457555d48fULL);
}

TEST(Determinism, SharedFormulaProgramsAreThreadSafe) {
  // The runs of a cell share its compiled formulas across the worker
  // threads; an out-of-spec campaign trips them, so the verdicts must
  // come out the same on one thread and on four.
  CampaignOptions options;
  options.runs_per_config = 3;
  options.out_of_spec = true;
  options.shrink = false;
  options.formulas = rv::pltl::shipped_monitor_specs();
  options.threads = 1;
  const CampaignResult one = run_campaign(options);
  options.threads = 4;
  const CampaignResult four = run_campaign(options);
  EXPECT_EQ(one.fingerprint, four.fingerprint);
  EXPECT_EQ(one.formula_violating_runs, four.formula_violating_runs);
  EXPECT_EQ(one.formula_violations, four.formula_violations);
  EXPECT_GT(one.formula_violating_runs, 0u);
}

TEST(Determinism, CampaignRepeatsAreIdentical) {
  CampaignOptions options;
  options.runs_per_config = 2;
  options.out_of_spec = true;
  options.shrink = false;
  const CampaignResult a = run_campaign(options);
  const CampaignResult b = run_campaign(options);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.violating_runs, b.violating_runs);
  ASSERT_EQ(a.violating.size(), b.violating.size());
  for (std::size_t i = 0; i < a.violating.size(); ++i) {
    EXPECT_EQ(a.violating[i].spec, b.violating[i].spec);
    ASSERT_FALSE(a.violating[i].violations.empty());
    EXPECT_EQ(a.violating[i].violations.front().key(),
              b.violating[i].violations.front().key());
  }
}

// --- campaigns ------------------------------------------------------------

// In-spec faults (loss, bursts, partitions, duplication, crashes,
// leaves, delays within tmin/2) must never trip R1–R3: the corrected
// protocol's guarantees hold under the channel assumptions, so any
// violation here is a real bug. The 1000+-run version of this is the
// acceptance gate run by bench_chaos_campaign.
TEST(Campaign, InSpecRunsAreClean) {
  CampaignOptions options;
  options.runs_per_config = 10;  // 6 variants x 3 timings x 10 = 180 runs
  const CampaignResult result = run_campaign(options);
  EXPECT_EQ(result.runs, 180u);
  EXPECT_EQ(result.violating_runs, 0u) << "in-spec chaos found a protocol bug";
  // The profile actually exercised the fault models…
  EXPECT_GT(result.totals.lost + result.totals.blocked, 0u);
  EXPECT_GT(result.totals.duplicated, 0u);
  // …while staying inside the channel assumptions.
  EXPECT_EQ(result.totals.out_of_spec_delay, 0u);
}

TEST(Campaign, NegativeControlFiresShrinksAndReplays) {
  CampaignOptions options;
  options.runs_per_config = 4;  // 72 runs, every schedule out of spec
  options.out_of_spec = true;
  const CampaignResult result = run_campaign(options);
  EXPECT_GT(result.violating_runs, 0u)
      << "out-of-spec faults never tripped the monitors";
  ASSERT_FALSE(result.violating.empty());
  for (const auto& violating : result.violating) {
    ASSERT_FALSE(violating.violations.empty());
    EXPECT_TRUE(violating.spec.schedule.out_of_spec(violating.spec.timing()));
    // The shrunk schedule is no larger and still out of spec (the
    // violation needs the out-of-spec action to reproduce).
    EXPECT_LE(violating.shrunk.schedule.actions.size(),
              violating.spec.schedule.actions.size());
    EXPECT_FALSE(violating.shrunk.schedule.actions.empty());
    // Replaying the serialized artifact reproduces the identical
    // violation deterministically.
    const auto parsed = parse_run(violating.artifact);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, violating.shrunk);
    const rv::MonitorBounds bounds = rv::MonitorBounds::defaults(
        parsed->timing(), parsed->variant, parsed->fixed_bounds);
    const RunResult replay_a = run_chaos(*parsed, &bounds, true);
    const RunResult replay_b = run_chaos(*parsed, &bounds, true);
    ASSERT_FALSE(replay_a.violations.empty());
    EXPECT_EQ(replay_a.trace, replay_b.trace);
    ASSERT_EQ(replay_a.violations.size(), replay_b.violations.size());
    EXPECT_EQ(replay_a.violations.front().key(),
              replay_b.violations.front().key());
    const auto& target = violating.violations.front();
    EXPECT_TRUE(std::any_of(
        replay_a.violations.begin(), replay_a.violations.end(),
        [&](const rv::Violation& v) {
          return v.requirement == target.requirement && v.node == target.node;
        }));
  }
}

// --- mutation canary ------------------------------------------------------

/// A deterministic out-of-spec reproducer: slow participant clock (rate
/// 1/2) plus a coordinator crash. The drifting participant reaches its
/// local inactivation deadline far too late in global time, missing the
/// R3 bound.
RunSpec drifted_r3_spec() {
  RunSpec spec;
  spec.variant = Variant::Binary;
  spec.tmin = 1;
  spec.tmax = 16;
  spec.participants = 1;
  spec.seed = 9;
  spec.horizon = 400;
  spec.schedule.actions = {
      {FaultKind::SetDrift, 0, 1, 0, 0, 0, 0, 1, 2},
      {FaultKind::CrashCoordinator, 10, 0, 0, 0, 0, 0, 0, 0},
  };
  return spec;
}

TEST(MutationCanary, LoosenedBoundSilencesTheNegativeControl) {
  const RunSpec spec = drifted_r3_spec();
  EXPECT_TRUE(spec.schedule.out_of_spec(spec.timing()));

  // Sound bounds: the drifted run violates R3.
  const RunResult strict = run_chaos(spec);
  ASSERT_FALSE(strict.violations.empty());
  EXPECT_TRUE(std::any_of(strict.violations.begin(), strict.violations.end(),
                          [](const rv::Violation& v) {
                            return v.requirement == 3 && v.node == 1;
                          }));

  // Artificially loosened R3 slack: the same run must stop reporting
  // the violation — the proof the monitor deadline is what bites.
  rv::MonitorBounds loose = rv::MonitorBounds::defaults(
      spec.timing(), spec.variant, spec.fixed_bounds);
  loose.r3_slack += 10 * spec.tmax;
  const RunResult lenient = run_chaos(spec, &loose);
  EXPECT_TRUE(std::none_of(lenient.violations.begin(),
                           lenient.violations.end(),
                           [](const rv::Violation& v) {
                             return v.requirement == 3;
                           }));
}

TEST(MutationCanary, ShrunkReproducerReplaysFromSerializedForm) {
  const RunSpec spec = drifted_r3_spec();
  const RunSpec shrunk = shrink_run(spec);
  ASSERT_FALSE(shrunk.schedule.actions.empty());
  EXPECT_LE(shrunk.schedule.actions.size(), spec.schedule.actions.size());
  const auto parsed = parse_run(serialize_run(shrunk));
  ASSERT_TRUE(parsed.has_value());
  const RunResult replay = run_chaos(*parsed);
  EXPECT_TRUE(std::any_of(replay.violations.begin(), replay.violations.end(),
                          [](const rv::Violation& v) {
                            return v.requirement == 3 && v.node == 1;
                          }));
}

}  // namespace
}  // namespace ahb::chaos
