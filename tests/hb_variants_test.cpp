// Variant-specific end-to-end behaviour of the executable library:
// revised binary start-up, two-phase acceleration, static group
// detection bounds with several members, expanding join timing.
#include <gtest/gtest.h>

#include "hb/cluster_scale.hpp"

namespace ahb::hb {
namespace {

ClusterConfig config_for(Variant v, int participants, Time tmin, Time tmax) {
  ClusterConfig c;
  c.protocol.variant = v;
  c.protocol.tmin = tmin;
  c.protocol.tmax = tmax;
  c.participants = participants;
  return c;
}

TEST(Variants, RevisedBinaryBeatsAtTimeZero) {
  ScaleCluster cluster{config_for(Variant::RevisedBinary, 1, 2, 10)};
  cluster.start();
  cluster.run_until(5);
  // The initial beat went out immediately and the reply already came
  // back: both sides have sent one message within half a round.
  EXPECT_EQ(cluster.stats().beats, 1u);
  EXPECT_EQ(cluster.stats().replies, 1u);
}

TEST(Variants, OriginalBinaryWaitsAFullRoundFirst) {
  ScaleCluster cluster{config_for(Variant::Binary, 1, 2, 10)};
  cluster.start();
  cluster.run_until(9);
  EXPECT_EQ(cluster.stats().beats, 0u);
  cluster.run_until(12);
  EXPECT_EQ(cluster.stats().beats, 1u);
}

TEST(Variants, RevisedBinaryRunsHealthyForever) {
  ScaleCluster cluster{config_for(Variant::RevisedBinary, 1, 2, 10)};
  cluster.start();
  cluster.run_until(10000);
  EXPECT_EQ(cluster.coordinator_status(), Status::Active);
  EXPECT_EQ(cluster.participant_status(1), Status::Active);
}

TEST(Variants, TwoPhaseDetectsFasterThanBinaryForSmallTmin) {
  // After a crash, two-phase drops straight to tmin instead of walking
  // the halving ladder, so its detection is at least as fast.
  const auto detect = [](Variant v) {
    ScaleCluster cluster{config_for(v, 1, 1, 16)};
    cluster.crash_participant_at(1, 100);
    cluster.start();
    cluster.run_until(3000);
    return cluster.coordinator_inactivated_at();
  };
  const Time binary_at = detect(Variant::Binary);
  const Time two_phase_at = detect(Variant::TwoPhase);
  ASSERT_NE(binary_at, kNever);
  ASSERT_NE(two_phase_at, kNever);
  EXPECT_LE(two_phase_at, binary_at);
}

TEST(Variants, StaticDetectionIndependentOfGroupSize) {
  // One silent member dooms the group no matter how many healthy
  // members keep replying.
  for (const int n : {1, 3, 6}) {
    ScaleCluster cluster{config_for(Variant::Static, n, 2, 10)};
    cluster.crash_participant_at(n, 200);
    cluster.start();
    cluster.run_until(3000);
    ASSERT_EQ(cluster.coordinator_status(),
              Status::InactiveNonVoluntarily)
        << "n=" << n;
    Config cfg;
    cfg.tmin = 2;
    cfg.tmax = 10;
    EXPECT_LE(cluster.coordinator_inactivated_at(),
              200 + cfg.tmin + cfg.coordinator_detection_bound())
        << "n=" << n;
  }
}

TEST(Variants, ExpandingJoinCompletesWithinTwoRounds) {
  // A joiner beats every tmin from start-up; the coordinator registers
  // it and addresses it at the next timeout, so membership completes
  // within ~2*tmax + tmin.
  ScaleCluster cluster{config_for(Variant::Expanding, 2, 2, 10)};
  cluster.start();
  Config cfg;
  cfg.tmin = 2;
  cfg.tmax = 10;
  cluster.run_until(2 * cfg.tmax + cfg.tmin + 2);
  for (int i = 1; i <= 2; ++i) {
    EXPECT_TRUE(cluster.participant_joined(i)) << i;
  }
}

TEST(Variants, ExpandingJoinersGenerateBoundedJoinTraffic) {
  ScaleCluster cluster{config_for(Variant::Expanding, 1, 2, 10)};
  cluster.start();
  cluster.run_until(1000);
  // Join beats stop once joined: total sends stay near one per round
  // (plus the handful of join beats at the start).
  EXPECT_LT(cluster.stats().replies, 120u);
  EXPECT_GT(cluster.stats().replies, 90u);
}

TEST(Variants, DynamicAllMembersLeavingLeavesCoordinatorAlive) {
  ScaleCluster cluster{config_for(Variant::Dynamic, 3, 2, 10)};
  cluster.leave_at(1, 200);
  cluster.leave_at(2, 300);
  cluster.leave_at(3, 400);
  cluster.start();
  cluster.run_until(5000);
  EXPECT_EQ(cluster.coordinator_status(), Status::Active);
  EXPECT_EQ(cluster.member_count(), 0);
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(cluster.participant_status(i), Status::Left) << i;
  }
}

TEST(Variants, CoordinatorBeatsAccelerateUnderSuspicion) {
  // Observable acceleration: after a crash the coordinator's sends
  // bunch up (shorter rounds) until it gives up.
  ScaleCluster cluster{config_for(Variant::Binary, 1, 1, 16)};
  std::vector<sim::Time> coordinator_sends;
  // Track send times indirectly via beat-count deltas at fine steps.
  cluster.crash_participant_at(1, 100);
  cluster.start();
  std::uint64_t last = 0;
  for (sim::Time t = 0; t <= 300; ++t) {
    cluster.run_until(t);
    const auto sent = cluster.stats().beats;
    if (sent > last) {
      coordinator_sends.push_back(t);
      last = sent;
    }
  }
  ASSERT_GE(coordinator_sends.size(), 4u);
  // Gaps after the crash shrink monotonically (halving ladder).
  std::vector<sim::Time> gaps;
  for (std::size_t i = 1; i < coordinator_sends.size(); ++i) {
    gaps.push_back(coordinator_sends[i] - coordinator_sends[i - 1]);
  }
  // The final gaps (post-crash) must be strictly smaller than the
  // healthy round length.
  EXPECT_LT(gaps.back(), 16);
}

}  // namespace
}  // namespace ahb::hb
