// Tests for the rejoin extension (the source analysis's future work):
// a departed participant of the dynamic protocol may re-enter the join
// phase — at the model level (model-checked) and in the executable
// library (simulated).
#include <gtest/gtest.h>

#include "hb/cluster_scale.hpp"
#include "hb/participant.hpp"
#include "mc/explorer.hpp"
#include "models/heartbeat_model.hpp"

namespace ahb {
namespace {

using models::BuildOptions;
using models::Flavor;
using models::HeartbeatModel;

BuildOptions rejoin_options(int tmin, int tmax, bool fixed,
                            BuildOptions::Rejoin mode =
                                BuildOptions::Rejoin::Graceful) {
  BuildOptions options;
  options.timing = {tmin, tmax};
  options.rejoin = mode;
  options.fixed = fixed;
  return options;
}

TEST(RejoinModel, LeaveThenRejoinThenParticipateIsReachable) {
  const auto model =
      HeartbeatModel::build(Flavor::Dynamic, rejoin_options(1, 3, false));
  const auto& h = model.handles();
  mc::Explorer ex{model.net()};
  // A state where the participant is back in full membership (Alive,
  // registered) after having left: left flag cleared, jnd set, and we
  // passed through Left (witnessed by requiring a prior leave is implied
  // by left being cleared only on the rejoin edge; check both phases).
  const auto left_state = ex.reach([&](const ta::StateView& v) {
    return v.loc(h.parts[0].proc) == h.parts[0].l_left;
  });
  ASSERT_TRUE(left_state.found);
  const auto rejoined = ex.reach([&](const ta::StateView& v) {
    return v.loc(h.parts[0].proc) == h.parts[0].l_joining &&
           v.var(h.parts[0].left) == 0 && v.var(h.parts[0].jnd) == 0 &&
           v.clk(h.parts[0].wfb) == 0 && v.loc(h.p0) != h.l_nv;
  });
  EXPECT_TRUE(rejoined.found);
  // ... and all the way back to full membership.
  const auto participating = ex.reach([&](const ta::StateView& v) {
    return v.loc(h.parts[0].proc) == h.parts[0].l_alive &&
           v.var(h.parts[0].left) == 0;
  });
  EXPECT_TRUE(participating.found);
}

TEST(RejoinModel, NoDeadlockWithRejoin) {
  const auto model =
      HeartbeatModel::build(Flavor::Dynamic, rejoin_options(1, 3, false));
  mc::Explorer ex{model.net()};
  const auto r = ex.find_deadlock();
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.complete);
}

TEST(RejoinModel, FixedDynamicWithGracefulRejoinSatisfiesAllRequirements) {
  for (const int tmin : {1, 2, 3, 4}) {
    BuildOptions options = rejoin_options(tmin, 4, true);
    const auto verdicts =
        models::verify_requirements(Flavor::Dynamic, options);
    EXPECT_TRUE(verdicts.r1) << "tmin=" << tmin;
    EXPECT_TRUE(verdicts.r2) << "tmin=" << tmin;
    EXPECT_TRUE(verdicts.r3) << "tmin=" << tmin;
  }
}

TEST(RejoinModel, NaiveRejoinBreaksR2EvenInTheCorrectedProtocol) {
  // The reincarnation hazard: a stale leave beat still in flight is
  // processed after the new incarnation's join beat and de-registers it;
  // the joiner then starves and inactivates spuriously. Model checking
  // finds this even with both Section 6 fixes applied.
  BuildOptions options =
      rejoin_options(4, 4, true, BuildOptions::Rejoin::Naive);
  const auto verdicts = models::verify_requirements(Flavor::Dynamic, options);
  EXPECT_TRUE(verdicts.r1);
  EXPECT_FALSE(verdicts.r2) << "expected the reincarnation hazard";
  EXPECT_TRUE(verdicts.r3);
}

TEST(RejoinModel, GracefulRejoinWaitsOutTheLeaveBeat) {
  // At the same parameter point the graceful variant (rejoin only after
  // the leave's delay bound has drained) is safe.
  BuildOptions options =
      rejoin_options(4, 4, true, BuildOptions::Rejoin::Graceful);
  const auto verdicts = models::verify_requirements(Flavor::Dynamic, options);
  EXPECT_TRUE(verdicts.r2);
}

TEST(RejoinModel, RejoinRegistrationRestartsWaitingTimeFromTmax) {
  // The hb coordinator restarts a re-registered member's waiting time
  // from tmax; the model mirrors that on its join edge. The value is
  // behaviourally dead — the first round close after registration always
  // sees rcvd set (the join beat sets it), and next_wait(received=true)
  // resets tm regardless — so no trace can detect the reset. The state
  // space can: without it, departed-and-rejoined runs drag decayed tm
  // values through otherwise-identical states. The pinned count also
  // guards the stale-join adjudication: since deliver_join lost its
  // l_joining guard (engine semantics: any flag message registers), the
  // reachable set includes stale re-registration runs and their
  // stale_join latch — 229,528 states here, up from 102,765 under the
  // old voiding guard.
  const auto model =
      HeartbeatModel::build(Flavor::Dynamic, rejoin_options(2, 10, false));
  mc::Explorer ex{model.net()};
  const auto stats = ex.explore_all();
  EXPECT_EQ(stats.states, 229528u);
}

TEST(RejoinModel, UnfixedVerdictsMatchDynamicOracle) {
  // Rejoin adds behaviour but must not change the published verdicts:
  // R1 <=> 2*tmin > tmax, R2 <=> 2*tmin < tmax, R3 <=> tmin < tmax.
  for (const int tmin : {1, 2, 4}) {
    BuildOptions options = rejoin_options(tmin, 4, false);
    const auto verdicts =
        models::verify_requirements(Flavor::Dynamic, options);
    EXPECT_EQ(verdicts.r1, 2 * tmin > 4) << "tmin=" << tmin;
    EXPECT_EQ(verdicts.r2, 2 * tmin < 4) << "tmin=" << tmin;
    EXPECT_EQ(verdicts.r3, tmin < 4) << "tmin=" << tmin;
  }
}

TEST(RejoinLibrary, ParticipantRejoinRestartsJoinPhase) {
  hb::Config cfg;
  cfg.variant = hb::Variant::Dynamic;
  cfg.tmin = 2;
  cfg.tmax = 10;
  hb::Participant p{cfg, 3};
  p.start(0);
  p.on_message(4, hb::Message{0, true});  // joined
  p.request_leave();
  p.on_message(14, hb::Message{0, true});  // leaves
  ASSERT_EQ(p.status(), hb::Status::Left);

  const auto actions = p.rejoin(100);
  EXPECT_EQ(p.status(), hb::Status::Active);
  EXPECT_FALSE(p.joined());
  // The new incarnation's first join beat follows one join period
  // after the rejoin, like any join-phase entry.
  ASSERT_EQ(actions.messages.size(), 0u);
  EXPECT_EQ(p.next_event_time(), 102);  // first join beat at now + tmin

  p.on_message(105, hb::Message{0, true});
  EXPECT_TRUE(p.joined());
  EXPECT_EQ(p.status(), hb::Status::Active);
}

TEST(RejoinLibrary, ClusterLeaveRejoinRoundTrip) {
  hb::ClusterConfig config;
  config.protocol.variant = hb::Variant::Dynamic;
  config.protocol.tmin = 2;
  config.protocol.tmax = 10;
  config.participants = 2;
  hb::ScaleCluster cluster{config};
  cluster.leave_at(1, 200);
  cluster.rejoin_at(1, 500);
  cluster.start();

  cluster.run_until(400);
  EXPECT_EQ(cluster.participant_status(1), hb::Status::Left);
  EXPECT_FALSE(cluster.is_member(1));

  cluster.run_until(2000);
  EXPECT_EQ(cluster.participant_status(1), hb::Status::Active);
  EXPECT_TRUE(cluster.participant_joined(1));
  EXPECT_TRUE(cluster.is_member(1));
  EXPECT_EQ(cluster.coordinator_status(), hb::Status::Active);
}

TEST(RejoinLibrary, RejoinBeforeLeaveIsIgnoredByCluster) {
  hb::ClusterConfig config;
  config.protocol.variant = hb::Variant::Dynamic;
  config.protocol.tmin = 2;
  config.protocol.tmax = 10;
  config.participants = 1;
  hb::ScaleCluster cluster{config};
  cluster.rejoin_at(1, 50);  // participant never left: must be a no-op
  cluster.start();
  cluster.run_until(500);
  EXPECT_EQ(cluster.participant_status(1), hb::Status::Active);
  EXPECT_EQ(cluster.coordinator_status(), hb::Status::Active);
}

}  // namespace
}  // namespace ahb
