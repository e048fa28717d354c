// Engine-vs-model trace conformance (src/proto/conformance.hpp).
//
// Every test records the protocol-event trace of a simulated hb::ScaleCluster
// run and asks the guided walk whether the timed-automata model of the
// same variant and timing can reproduce it. Deterministic scenarios
// cover all six variants at the five (tmin, tmax) points of Tables 1
// and 2; a seeded property test adds random loss and crash times; and
// the mutation canaries prove the harness actually fails when a shared
// protocol constant drifts — without that, a green conformance suite
// would mean nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>

#include "chaos/runner.hpp"
#include "hb/cluster_scale.hpp"
#include "proto/conformance.hpp"
#include "proto/rules.hpp"

namespace ahb {
namespace {

using proto::TraceRecorder;

// The (tmin, tmax) points of Tables 1 and 2: R1/R2/R3 flip across them.
constexpr std::pair<int, int> kTimingPoints[] = {
    {1, 10}, {4, 10}, {5, 10}, {9, 10}, {10, 10}};

constexpr hb::Variant kAllVariants[] = {
    hb::Variant::Binary,   hb::Variant::RevisedBinary, hb::Variant::TwoPhase,
    hb::Variant::Static,   hb::Variant::Expanding,     hb::Variant::Dynamic};

// Zero network delay: deliveries are observed at their send instant.
// The original conformance scenarios run like this; the nonzero-delay
// scenarios below override the delay range.
hb::ClusterConfig conformance_config(hb::Variant variant, int tmin,
                                     int tmax) {
  hb::ClusterConfig config;
  config.protocol.variant = variant;
  config.protocol.tmin = tmin;
  config.protocol.tmax = tmax;
  config.participants = proto::variant_is_multi(variant) ? 2 : 1;
  config.min_delay = 0;
  config.max_delay = 0;
  config.seed = 1;
  return config;
}

// In-spec nonzero delay: each message rides a random one-way delay in
// [0, tmin/2] (the channel assumption's bound), so sends and deliveries
// are distinct trace instants — the regime the message-identity matcher
// exists for.
hb::ClusterConfig delayed_config(hb::Variant variant, int tmin, int tmax) {
  auto config = conformance_config(variant, tmin, tmax);
  config.max_delay = -1;  // engine default: tmin / 2
  config.seed = 7;
  return config;
}

TEST(Conformance, ParticipantCrashCascadeReplaysForEveryVariant) {
  for (const auto variant : kAllVariants) {
    for (const auto& [tmin, tmax] : kTimingPoints) {
      SCOPED_TRACE(testing::Message() << to_string(variant) << " tmin="
                                      << tmin << " tmax=" << tmax);
      const auto config = conformance_config(variant, tmin, tmax);
      hb::ScaleCluster cluster{config};
      TraceRecorder recorder{cluster};
      // A few healthy rounds, then p[1] dies: the coordinator misses it,
      // accelerates down the waiting-time ladder and inactivates; any
      // remaining participant then starves and inactivates too.
      cluster.crash_participant_at(1, 2 * tmax + 1);
      cluster.start();
      cluster.run_until(9 * tmax);
      ASSERT_FALSE(recorder.events().empty());
      const auto r = proto::replay_cluster_trace(config, recorder.events());
      EXPECT_TRUE(r.ok) << "matched " << r.matched << "/" << r.events << ": "
                        << r.diagnostic;
    }
  }
}

TEST(Conformance, CoordinatorCrashStarvationReplaysForEveryVariant) {
  for (const auto variant : kAllVariants) {
    for (const auto& [tmin, tmax] : kTimingPoints) {
      SCOPED_TRACE(testing::Message() << to_string(variant) << " tmin="
                                      << tmin << " tmax=" << tmax);
      const auto config = conformance_config(variant, tmin, tmax);
      hb::ScaleCluster cluster{config};
      TraceRecorder recorder{cluster};
      // The coordinator dies mid-run: beats stop and every participant
      // must non-voluntarily inactivate at its deadline.
      cluster.crash_coordinator_at(2 * tmax + 1);
      cluster.start();
      cluster.run_until(8 * tmax);
      ASSERT_FALSE(recorder.events().empty());
      const auto r = proto::replay_cluster_trace(config, recorder.events());
      EXPECT_TRUE(r.ok) << "matched " << r.matched << "/" << r.events << ": "
                        << r.diagnostic;
    }
  }
}

TEST(Conformance, DynamicLeaveAndGracefulRejoinReplays) {
  for (const auto& [tmin, tmax] : kTimingPoints) {
    SCOPED_TRACE(testing::Message() << "tmin=" << tmin << " tmax=" << tmax);
    const auto config =
        conformance_config(hb::Variant::Dynamic, tmin, tmax);
    hb::ScaleCluster cluster{config};
    TraceRecorder recorder{cluster};
    // p[1] departs gracefully, waits out the leave beat, re-enters the
    // join phase and participates again; finally the coordinator dies.
    cluster.leave_at(1, 2 * tmax + 1);
    cluster.rejoin_at(1, 4 * tmax + 1);
    cluster.crash_coordinator_at(7 * tmax + 1);
    cluster.start();
    cluster.run_until(12 * tmax);
    ASSERT_FALSE(recorder.events().empty());
    const auto saw = [&](hb::ProtocolEvent::Kind kind) {
      for (const auto& e : recorder.events()) {
        if (e.kind == kind) return true;
      }
      return false;
    };
    // At tmin == tmax the join deadline (3*tmax - tmin) coincides with
    // the second round and the participants NV-inactivate while still
    // joining — the run ends before the scheduled leave. The trace must
    // replay either way; the leave/rejoin markers exist only otherwise.
    ASSERT_EQ(saw(hb::ProtocolEvent::Kind::ParticipantLeft), tmin < tmax);
    ASSERT_EQ(saw(hb::ProtocolEvent::Kind::ParticipantRejoined),
              tmin < tmax);
    const auto r = proto::replay_cluster_trace(
        config, recorder.events(), models::BuildOptions::Rejoin::Graceful);
    EXPECT_TRUE(r.ok) << "matched " << r.matched << "/" << r.events << ": "
                      << r.diagnostic;
  }
}

TEST(Conformance, DynamicLossRejoinOverlapReplays) {
  // The ROADMAP divergence scenario: p[1]'s waiting time tm[1] decays at
  // p[0] under loss (its replies are dropped), p[1] then leaves with the
  // decayed tm[1] on the books, gracefully rejoins, and runs into a
  // second loss window right after re-registration. The model now
  // restarts the rejoiner's tm from tmax on the join edge, exactly like
  // the hb coordinator; this scenario covers that path end to end. (The
  // reset itself is trace-invisible — the join beat sets rcvd, which
  // masks tm at the next round close — so the regression detector for
  // it is the state-count pin in rejoin_test.cpp, and this test pins
  // that decayed rounds, leave, rejoin and overlapping loss replay.)
  const auto config = conformance_config(hb::Variant::Dynamic, 4, 10);
  hb::ScaleCluster cluster{config};
  TraceRecorder recorder{cluster};
  cluster.leave_at(1, 38);   // leaves with the next beat, at t=40
  cluster.rejoin_at(1, 46);  // graceful: > tmin after the t=40 leave
  cluster.start();
  cluster.run_until(25);    // healthy joined rounds close at 10, 20, 30
  cluster.links().set_up(1, 0, false);  // p[1]'s t=30 reply vanishes: tm[1] decays
  cluster.run_until(35);    //   (the decayed t=40..45 round is recorded)
  cluster.links().set_up(1, 0, true);  // up again so the leave beat gets through
  cluster.run_until(51);       // leave at 40, rejoin registers at t=50
  cluster.links().set_up(1, 0, false);     // loss overlapping the re-registration:
  cluster.run_until(75);       //   p[1] starves p[0], which inactivates
  cluster.links().set_up(1, 0, true);
  cluster.run_until(120);
  ASSERT_FALSE(recorder.events().empty());
  const auto saw = [&](hb::ProtocolEvent::Kind kind) {
    for (const auto& e : recorder.events()) {
      if (e.kind == kind) return true;
    }
    return false;
  };
  ASSERT_TRUE(saw(hb::ProtocolEvent::Kind::ParticipantLeft));
  ASSERT_TRUE(saw(hb::ProtocolEvent::Kind::ParticipantRejoined));
  const auto r = proto::replay_cluster_trace(
      config, recorder.events(), models::BuildOptions::Rejoin::Graceful);
  EXPECT_TRUE(r.ok) << "matched " << r.matched << "/" << r.events << ": "
                    << r.diagnostic;
}

TEST(Conformance, RandomLossAndCrashTracesReplay) {
  // Seeded property test: under random loss and crash times, every trace
  // the engines can produce must still be a trace of the model. Loss is
  // never recorded directly — the guided walk has to infer each lost
  // message from the deliveries that did not happen.
  std::mt19937_64 rng{20260805u};
  for (const auto variant : kAllVariants) {
    for (int rep = 0; rep < 3; ++rep) {
      const auto [tmin, tmax] =
          kTimingPoints[rng() % std::size(kTimingPoints)];
      auto config = conformance_config(variant, tmin, tmax);
      config.loss_probability = 0.2;
      config.seed = rng();
      SCOPED_TRACE(testing::Message()
                   << to_string(variant) << " tmin=" << tmin << " tmax="
                   << tmax << " seed=" << config.seed << " rep=" << rep);
      hb::ScaleCluster cluster{config};
      TraceRecorder recorder{cluster};
      const auto crash_time = [&] {
        return static_cast<sim::Time>(1 + rng() % (4 * tmax));
      };
      if (rng() % 2 == 0) cluster.crash_participant_at(1, crash_time());
      if (rng() % 2 == 0) cluster.crash_coordinator_at(crash_time());
      cluster.start();
      cluster.run_until(6 * tmax);
      const auto r = proto::replay_cluster_trace(config, recorder.events());
      EXPECT_TRUE(r.ok) << "matched " << r.matched << "/" << r.events << ": "
                        << r.diagnostic;
    }
  }
}

// ---- mutation canaries ----

TEST(ConformanceCanary, PerturbedTimingConstantIsRejected) {
  const auto config = conformance_config(hb::Variant::Binary, 4, 10);
  hb::ScaleCluster cluster{config};
  TraceRecorder recorder{cluster};
  cluster.crash_participant_at(1, 21);
  cluster.start();
  cluster.run_until(90);
  ASSERT_FALSE(recorder.events().empty());
  ASSERT_TRUE(proto::replay_cluster_trace(config, recorder.events()).ok);

  // The same trace against a model whose tmax drifted by one: the
  // model's rounds come at the wrong instants, so no run matches.
  auto options = proto::model_options_for(config);
  options.timing.tmax = 9;
  const auto r = proto::replay_through_model(config.protocol.variant,
                                             options, recorder.events());
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.diagnostic.empty());
}

TEST(ConformanceCanary, PerturbedDeadlineLawIsRejected) {
  // Recorded under the published participant deadline (3*tmax - tmin),
  // replayed against a model using the corrected one (2*tmax): the
  // model is forced to inactivate p[1] earlier than the recorded NV
  // event, an observable mismatch.
  const auto config = conformance_config(hb::Variant::Binary, 4, 10);
  hb::ScaleCluster cluster{config};
  TraceRecorder recorder{cluster};
  cluster.crash_coordinator_at(21);
  cluster.start();
  cluster.run_until(80);
  ASSERT_FALSE(recorder.events().empty());
  ASSERT_TRUE(proto::replay_cluster_trace(config, recorder.events()).ok);

  auto options = proto::model_options_for(config);
  options.corrected_bounds = true;
  const auto r = proto::replay_through_model(config.protocol.variant,
                                             options, recorder.events());
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.diagnostic.empty());
}

// ---- nonzero-delay scenarios ----

TEST(ConformanceDelay, PureDelayCrashCascadeReplaysForEveryVariant) {
  // Every message rides its own random in-spec delay, so deliveries land
  // strictly after their sends and concurrent same-payload messages are
  // routine — the trace shape only message identity replays correctly.
  for (const auto variant : kAllVariants) {
    for (const auto& [tmin, tmax] : {std::pair{4, 10}, std::pair{10, 10}}) {
      SCOPED_TRACE(testing::Message() << to_string(variant) << " tmin="
                                      << tmin << " tmax=" << tmax);
      const auto config = delayed_config(variant, tmin, tmax);
      hb::ScaleCluster cluster{config};
      TraceRecorder recorder{cluster};
      cluster.crash_participant_at(1, 2 * tmax + 1);
      cluster.start();
      cluster.run_until(9 * tmax);
      ASSERT_FALSE(recorder.events().empty());
      const auto r = proto::replay_cluster_trace(config, recorder.events());
      EXPECT_TRUE(r.ok) << "matched " << r.matched << "/" << r.events << ": "
                        << r.diagnostic;
    }
  }
}

TEST(ConformanceDelay, DelayAndLinkLossDecayReplays) {
  // Delay plus loss: p[1]'s replies vanish for a window, the waiting
  // time decays, then the link heals. The replayer must infer each lost
  // message from the delivery that never came — with the loss edges of
  // messages the future does deliver forbidden while in flight.
  for (const auto& [tmin, tmax] : {std::pair{4, 10}, std::pair{9, 10}}) {
    SCOPED_TRACE(testing::Message() << "tmin=" << tmin << " tmax=" << tmax);
    const auto config = delayed_config(hb::Variant::Static, tmin, tmax);
    hb::ScaleCluster cluster{config};
    TraceRecorder recorder{cluster};
    cluster.start();
    cluster.run_until(2 * tmax + 5);
    cluster.links().set_up(1, 0, false);  // p[1]'s replies are lost: tm[1] decays
    cluster.run_until(4 * tmax + 5);
    cluster.links().set_up(1, 0, true);
    cluster.run_until(8 * tmax);
    ASSERT_FALSE(recorder.events().empty());
    const auto r = proto::replay_cluster_trace(config, recorder.events());
    EXPECT_TRUE(r.ok) << "matched " << r.matched << "/" << r.events << ": "
                      << r.diagnostic;
  }
}

TEST(ConformanceDelay, DelayAndDuplicationReplays) {
  // Every beat is duplicated and every delivery is one tick late: the
  // participant answers both copies, so the trace holds duplicate beat
  // deliveries and echo replies. Identity folds each onto its original.
  const auto config = conformance_config(hb::Variant::Binary, 4, 10);
  hb::ScaleCluster cluster{config};
  using Params = sim::LinkParams;
  cluster.links().set(
      0, 1, Params{.min_delay = 1, .max_delay = 1, .duplicate_probability = 1.0});
  cluster.links().set(1, 0, Params{.min_delay = 1, .max_delay = 1});
  TraceRecorder recorder{cluster};
  cluster.start();
  cluster.run_until(60);
  ASSERT_FALSE(recorder.events().empty());
  ASSERT_GT(cluster.network_stats().duplicated, 0u);
  const auto r = proto::replay_cluster_trace(config, recorder.events());
  EXPECT_TRUE(r.ok) << "matched " << r.matched << "/" << r.events << ": "
                    << r.diagnostic;

  // The pre-identity matcher sees the duplicate beat delivery and the
  // echo reply as events the model must reproduce — which it cannot, a
  // single-slot channel delivers once. The old matcher rejects a trace
  // the engines legitimately produced; that wrong verdict is the
  // regression this test pins.
  const auto payload = proto::replay_cluster_trace(
      config, recorder.events(), models::BuildOptions::Rejoin::None, {},
      proto::ObservationMode::PayloadOnly);
  EXPECT_FALSE(payload.ok);
}

TEST(ConformanceDelay, RandomDelayLossAndDuplicationTracesReplay) {
  // Seeded property sweep across all six variants at two Table-1 timing
  // points, under two fault mixes: random in-spec delays with loss, and
  // constant delay (tmin/2) with loss plus duplication. Every trace the
  // engines produce here must replay — sends pair with their own
  // deliveries, duplicates fold onto their originals, losses are
  // inferred from the deliveries that never came.
  //
  // The loss mix turns faults on from t=1, deliberately *inside* the
  // join phase: since the stale-join adjudication (the model registers
  // any flag message, like the engine — see the adjudication pins
  // below) the join phase is no longer a divergence zone, and this
  // sweep is the regression detector for that. One restriction
  // remains: duplication rides the constant-delay mix, where both
  // copies land at the same instant — a later copy would extend the
  // engine participant's deadline, which the deliver-once model cannot
  // do (divergence (a) in DESIGN.md), so the duplication mix also
  // waits out the join phase to keep its copies benign folds.
  struct Mix {
    double loss;
    double duplication;
    bool constant_delay;
  };
  constexpr Mix kMixes[] = {{0.15, 0.0, false}, {0.15, 0.25, true}};
  std::mt19937_64 rng{20260806u};
  for (const auto& mix : kMixes) {
    for (const auto variant : kAllVariants) {
      for (const auto& [tmin, tmax] : {std::pair{4, 10}, std::pair{10, 10}}) {
        auto config = delayed_config(variant, tmin, tmax);
        if (mix.constant_delay) config.min_delay = tmin / 2;
        config.seed = rng();
        SCOPED_TRACE(testing::Message()
                     << to_string(variant) << " tmin=" << tmin << " tmax="
                     << tmax << " seed=" << config.seed
                     << " dup=" << mix.duplication);
        hb::ScaleCluster cluster{config};
        TraceRecorder recorder{cluster};
        if (rng() % 2 == 0) {
          cluster.crash_participant_at(
              1, static_cast<sim::Time>(3 * tmax + 1 + rng() % (3 * tmax)));
        }
        cluster.start();
        cluster.run_until(mix.duplication > 0 ? 3 * tmax : 1);
        cluster.links().defaults().loss_probability = mix.loss;
        cluster.links().defaults().duplicate_probability =
            mix.duplication;
        cluster.run_until(8 * tmax);
        const auto r = proto::replay_cluster_trace(config, recorder.events());
        EXPECT_TRUE(r.ok) << "matched " << r.matched << "/" << r.events
                          << ": " << r.diagnostic;
      }
    }
  }
}

TEST(ConformanceDelay, ParallelReplayVerdictsAreThreadInvariant) {
  // The guided walk memoizes on a sharded concurrent store; accepting
  // and rejecting replays must return the same verdict and the same
  // matched prefix at every thread count.
  const auto config = delayed_config(hb::Variant::Dynamic, 4, 10);
  hb::ScaleCluster cluster{config};
  TraceRecorder recorder{cluster};
  cluster.crash_participant_at(1, 21);
  cluster.start();
  cluster.run_until(90);
  ASSERT_FALSE(recorder.events().empty());

  auto perturbed = proto::model_options_for(config);
  perturbed.timing.tmax = 9;

  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    mc::GuidedLimits limits;
    limits.threads = threads;
    const auto ok_r =
        proto::replay_cluster_trace(config, recorder.events(),
                                    models::BuildOptions::Rejoin::None, limits);
    EXPECT_TRUE(ok_r.ok) << ok_r.diagnostic;
    EXPECT_EQ(ok_r.matched, recorder.events().size());
    const auto bad_r = proto::replay_through_model(
        config.protocol.variant, perturbed, recorder.events(), limits);
    EXPECT_FALSE(bad_r.ok);
    EXPECT_FALSE(bad_r.diagnostic.empty());
  }
}

// ---- stale-join adjudication pins (resolved divergence (b)) ----

TEST(ConformanceIdentity, StaleJoinRescueReplays) {
  // The conflation scenario: p[1]'s second join beat is still in flight
  // when the first heartbeat arrives, so p[1] joins and replies — and the
  // reply is lost. The engine's coordinator counts the stale join beat as
  // the round's beat (any true-flag message sets rcvd), so the round
  // keeps its tmax pace although the real reply vanished.
  //
  // This used to be a pinned divergence: the model voided a join beat
  // delivered to a joined sender and the identity replay rejected the
  // trace. The divergence was adjudicated for the engine — a coordinator
  // cannot tell a stale join from a fresh one, so "register any flag
  // message" is the only implementable semantics. The model now delivers
  // stale joins too (latching `stale_join` for the R3 analysis), and the
  // same trace must replay cleanly under full message identity.
  const auto config = conformance_config(hb::Variant::Expanding, 4, 10);
  hb::ScaleCluster cluster{config};
  TraceRecorder recorder{cluster};
  using Params = sim::LinkParams;
  cluster.start();
  cluster.run_until(7);  // join beat 1 (t=4) delivered instantly
  // Join beat 2 (t=8) rides a 3-tick delay: it lands at t=11, after the
  // t=10 heartbeat has made p[1] a member.
  cluster.links().set(1, 0, Params{.min_delay = 3, .max_delay = 3});
  cluster.run_until(8);
  cluster.links().set(1, 0, Params{.min_delay = 0, .max_delay = 0});
  cluster.links().set_up(1, 0, false);  // the t=10 reply is lost
  cluster.run_until(10);
  cluster.links().set_up(1, 0, true);
  cluster.run_until(45);
  ASSERT_FALSE(recorder.events().empty());
  const auto saw_rescue = [&] {
    for (const auto& e : recorder.events()) {
      if (e.kind == hb::ProtocolEvent::Kind::CoordinatorReceivedBeat &&
          e.at == 11) {
        return true;
      }
    }
    return false;
  }();
  ASSERT_TRUE(saw_rescue);

  const auto r = proto::replay_cluster_trace(config, recorder.events());
  EXPECT_TRUE(r.ok) << r.diagnostic;
  EXPECT_EQ(r.matched, recorder.events().size());

  // Payload-only matching accepts too — with the divergence adjudicated
  // the weaker matcher no longer hides anything here.
  const auto payload = proto::replay_cluster_trace(
      config, recorder.events(), models::BuildOptions::Rejoin::None, {},
      proto::ObservationMode::PayloadOnly);
  EXPECT_TRUE(payload.ok) << payload.diagnostic;
}

TEST(ConformanceIdentity, StaleJoinAfterCrashRegistersGhostAndReplays) {
  // In-spec pin for the adjudication's sharpest edge: a join beat is in
  // flight when its sender crashes. The engine's coordinator registers
  // the dead node on delivery (a ghost member) and paces rounds as if it
  // were alive until the ladder dries out. The model mirrors this via
  // `deliver_join_stale`, so the recorded trace replays under full
  // message identity.
  const auto config = conformance_config(hb::Variant::Expanding, 4, 10);
  hb::ScaleCluster cluster{config};
  TraceRecorder recorder{cluster};
  using Params = sim::LinkParams;
  cluster.links().set(1, 0, Params{.min_delay = 2, .max_delay = 2});
  cluster.crash_participant_at(1, 5);
  cluster.start();
  // Join beat at t=4 arrives at t=6 — one tick after the crash.
  cluster.run_until(60);
  ASSERT_FALSE(recorder.events().empty());
  const auto ghost_registered = [&] {
    for (const auto& e : recorder.events()) {
      if (e.kind == hb::ProtocolEvent::Kind::CoordinatorReceivedBeat &&
          e.at == 6) {
        return true;
      }
    }
    return false;
  }();
  ASSERT_TRUE(ghost_registered);

  const auto r = proto::replay_cluster_trace(config, recorder.events());
  EXPECT_TRUE(r.ok) << r.diagnostic;
  EXPECT_EQ(r.matched, recorder.events().size());
}

// ---- canonical equal-timestamp ordering (satellite pin) ----

TEST(ConformanceOrder, SendHopsBeforeOtherNodesDeliveryAtEqualTime) {
  using Kind = hb::ProtocolEvent::Kind;
  const auto ev = [](Kind kind, int node, sim::Time at) {
    return hb::ProtocolEvent{kind, at, node, 0, 0};
  };

  // Independent nodes: p[1]'s send hops before p[2]'s delivery.
  {
    const hb::ProtocolEvent in[] = {ev(Kind::ParticipantReceivedBeat, 2, 5),
                                    ev(Kind::ParticipantReplied, 1, 5)};
    const auto out = proto::canonical_event_order(in);
    EXPECT_EQ(out[0].kind, Kind::ParticipantReplied);
    EXPECT_EQ(out[1].kind, Kind::ParticipantReceivedBeat);
  }
  // Same node: the delivery causes the send; order is causal, kept.
  {
    const hb::ProtocolEvent in[] = {ev(Kind::ParticipantReceivedBeat, 1, 5),
                                    ev(Kind::ParticipantReplied, 1, 5)};
    const auto out = proto::canonical_event_order(in);
    EXPECT_EQ(out[0].kind, Kind::ParticipantReceivedBeat);
  }
  // A delivery *to* the coordinator and the coordinator's beat share the
  // actor (node 0 receives; node field holds the sender): kept.
  {
    const hb::ProtocolEvent in[] = {ev(Kind::CoordinatorReceivedBeat, 1, 5),
                                    ev(Kind::CoordinatorBeat, 0, 5)};
    const auto out = proto::canonical_event_order(in);
    EXPECT_EQ(out[0].kind, Kind::CoordinatorReceivedBeat);
  }
  // Internal events are barriers; earlier timestamps are never crossed.
  {
    const hb::ProtocolEvent in[] = {ev(Kind::ParticipantCrashed, 2, 5),
                                    ev(Kind::ParticipantReplied, 1, 5),
                                    ev(Kind::ParticipantReceivedBeat, 2, 6),
                                    ev(Kind::ParticipantReplied, 2, 6)};
    const auto out = proto::canonical_event_order(in);
    EXPECT_EQ(out[0].kind, Kind::ParticipantCrashed);
    EXPECT_EQ(out[2].kind, Kind::ParticipantReceivedBeat);
  }
  // The two recorder orders of an independent same-instant pair yield
  // identical observation streams — verdicts cannot depend on simulator
  // queue internals.
  {
    const hb::ProtocolEvent a[] = {ev(Kind::ParticipantReceivedBeat, 2, 5),
                                   ev(Kind::ParticipantReplied, 1, 5)};
    const hb::ProtocolEvent b[] = {ev(Kind::ParticipantReplied, 1, 5),
                                   ev(Kind::ParticipantReceivedBeat, 2, 5)};
    const auto oa = proto::to_observations(a);
    const auto ob = proto::to_observations(b);
    ASSERT_EQ(oa.size(), ob.size());
    for (std::size_t i = 0; i < oa.size(); ++i) {
      EXPECT_EQ(oa[i].any_of, ob[i].any_of);
      EXPECT_EQ(oa[i].at, ob[i].at);
    }
  }
}

// ---- shrunk chaos artifact fed back through the replayer ----

TEST(ConformanceChaos, ShrunkOutOfSpecArtifactIsRejectedByTheModel) {
  // A shrunk reproducer from `bench_chaos_campaign --out-of-spec
  // --artifacts=...`: one surviving action injects a one-way delay of up
  // to 5 on the reply link of a tmin == 3 protocol (spec bound: 1). The
  // run violates R1 at runtime; replaying its recorded trace must show
  // the model rejecting it — out-of-spec executions are not traces of
  // the model, and now the replayer can literally consume the artifact.
  const std::string artifact =
      "{\"schedule\": \"ahb-chaos\", \"variant\": \"binary\", \"tmin\": 3, "
      "\"tmax\": 3, \"fixed_bounds\": true, \"receive_priority\": true, "
      "\"participants\": 1, \"seed\": 120, \"horizon\": 48}\n"
      "{\"kind\": \"set-delay\", \"at\": 2, \"a\": 0, \"b\": 1, \"p\": 0, "
      "\"q\": 0, \"r\": 0, \"d1\": 0, \"d2\": 5}\n";
  const auto spec = chaos::parse_run(artifact);
  ASSERT_TRUE(spec.has_value());
  ASSERT_TRUE(spec->schedule.out_of_spec(spec->timing()));

  const auto run = chaos::run_chaos(*spec, nullptr, false, true);
  ASSERT_FALSE(run.violations.empty());
  ASSERT_FALSE(run.events.empty());
  const auto r = proto::replay_cluster_trace(chaos::cluster_config_for(*spec),
                                             run.events);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.diagnostic.empty());

  // Control: the same spec with the out-of-spec injection dropped stays
  // within the channel assumption — no violations, and the trace replays.
  auto clamped = *spec;
  clamped.schedule.actions.clear();
  const auto clean = chaos::run_chaos(clamped, nullptr, false, true);
  EXPECT_TRUE(clean.violations.empty());
  ASSERT_FALSE(clean.events.empty());
  const auto cr = proto::replay_cluster_trace(
      chaos::cluster_config_for(clamped), clean.events);
  EXPECT_TRUE(cr.ok) << "matched " << cr.matched << "/" << cr.events << ": "
                     << cr.diagnostic;
}

}  // namespace
}  // namespace ahb
