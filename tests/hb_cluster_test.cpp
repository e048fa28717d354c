// Whole-system integration tests: coordinator + participants on the
// lossy discrete-event network (hb::ScaleCluster).
#include <gtest/gtest.h>

#include "hb/cluster_scale.hpp"

namespace ahb::hb {
namespace {

ClusterConfig make_cluster(Variant v, int participants, Time tmin = 2,
                           Time tmax = 10) {
  ClusterConfig c;
  c.protocol.variant = v;
  c.protocol.tmin = tmin;
  c.protocol.tmax = tmax;
  c.participants = participants;
  return c;
}

TEST(Cluster, HealthyBinaryStaysActive) {
  ScaleCluster cluster{make_cluster(Variant::Binary, 1)};
  cluster.start();
  cluster.run_until(10000);
  EXPECT_EQ(cluster.coordinator_status(), Status::Active);
  EXPECT_EQ(cluster.participant_status(1), Status::Active);
  // Steady state: one beat per round in each direction, ~1000 rounds.
  EXPECT_NEAR(static_cast<double>(cluster.stats().beats), 1000, 10);
  EXPECT_NEAR(static_cast<double>(cluster.stats().replies), 1000, 10);
}

TEST(Cluster, HealthyStaticStaysActive) {
  ScaleCluster cluster{make_cluster(Variant::Static, 4)};
  cluster.start();
  cluster.run_until(5000);
  EXPECT_EQ(cluster.coordinator_status(), Status::Active);
  for (int i = 1; i <= 4; ++i) {
    EXPECT_EQ(cluster.participant_status(i), Status::Active) << i;
  }
}

TEST(Cluster, ParticipantCrashDeactivatesEveryone) {
  ScaleCluster cluster{make_cluster(Variant::Binary, 1)};
  cluster.crash_participant_at(1, 500);
  cluster.start();
  cluster.run_until(5000);
  EXPECT_EQ(cluster.coordinator_status(),
            Status::InactiveNonVoluntarily);
  EXPECT_TRUE(cluster.all_inactive());
  // Detection within the corrected bound after the crash (plus one
  // round that may already be in flight).
  const Time bound =
      cluster.config().protocol.coordinator_detection_bound();
  EXPECT_LE(cluster.coordinator_inactivated_at(), 500 + bound + 10);
}

TEST(Cluster, CoordinatorCrashDeactivatesParticipants) {
  ScaleCluster cluster{make_cluster(Variant::Static, 3)};
  cluster.crash_coordinator_at(777);
  cluster.start();
  cluster.run_until(5000);
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(cluster.participant_status(i),
              Status::InactiveNonVoluntarily);
    // p[i] inactivates within 3*tmax - tmin of its last beat.
    EXPECT_LE(cluster.participant_inactivated_at(i),
              777 + 3 * 10 - 2 + 10);
  }
}

TEST(Cluster, ExpandingParticipantsJoin) {
  ScaleCluster cluster{make_cluster(Variant::Expanding, 3)};
  cluster.start();
  cluster.run_until(200);
  EXPECT_EQ(cluster.member_count(), 3);
  for (int i = 1; i <= 3; ++i) {
    EXPECT_TRUE(cluster.participant_joined(i)) << i;
    EXPECT_EQ(cluster.participant_status(i), Status::Active);
  }
}

TEST(Cluster, DynamicLeaveIsGraceful) {
  ScaleCluster cluster{make_cluster(Variant::Dynamic, 2)};
  cluster.leave_at(1, 300);
  cluster.start();
  cluster.run_until(5000);
  EXPECT_EQ(cluster.participant_status(1), Status::Left);
  // The rest of the network keeps running.
  EXPECT_EQ(cluster.coordinator_status(), Status::Active);
  EXPECT_EQ(cluster.participant_status(2), Status::Active);
  EXPECT_FALSE(cluster.is_member(1));
  EXPECT_TRUE(cluster.is_member(2));
}

/// Records every non-voluntary inactivation (node id, time).
class InactivationLog final : public rv::EventSink {
 public:
  std::uint32_t protocol_interest() const override {
    return rv::protocol_bit(ProtocolEvent::Kind::CoordinatorInactivated) |
           rv::protocol_bit(ProtocolEvent::Kind::ParticipantInactivated);
  }
  void on_protocol_event(const ProtocolEvent& event) override {
    events.emplace_back(event.node, event.at);
  }
  std::vector<std::pair<int, sim::Time>> events;
};

TEST(Cluster, InactivationCallbackFires) {
  InactivationLog log;
  ScaleCluster cluster{make_cluster(Variant::Binary, 1)};
  cluster.add_sink(&log);
  const auto& events = log.events;
  cluster.crash_participant_at(1, 100);
  cluster.start();
  cluster.run_until(2000);
  ASSERT_EQ(events.size(), 1u);  // only p0 decides; p1 crashed
  EXPECT_EQ(events[0].first, 0);
  EXPECT_EQ(events[0].second, cluster.coordinator_inactivated_at());
}

TEST(Cluster, SurvivesModerateLossLongRun) {
  // With 5% loss, a false inactivation needs several *consecutive*
  // misses; the accelerated protocol should survive a long run.
  auto cfg = make_cluster(Variant::Binary, 1, 1, 16);
  cfg.loss_probability = 0.05;
  cfg.seed = 12345;
  ScaleCluster cluster{cfg};
  cluster.start();
  cluster.run_until(50000);
  EXPECT_EQ(cluster.coordinator_status(), Status::Active);
  EXPECT_EQ(cluster.participant_status(1), Status::Active);
  EXPECT_GT(cluster.network_stats().lost, 0u);
}

TEST(Cluster, DeterministicForSeed) {
  const auto run = [](std::uint64_t seed) {
    auto cfg = make_cluster(Variant::Static, 2, 2, 8);
    cfg.loss_probability = 0.2;
    cfg.seed = seed;
    ScaleCluster cluster{cfg};
    cluster.start();
    cluster.run_until(3000);
    return std::tuple{cluster.network_stats().sent,
                      cluster.network_stats().delivered,
                      cluster.coordinator_status()};
  };
  EXPECT_EQ(run(9), run(9));
}

class CrashDetectionSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CrashDetectionSweep, DetectionWithinBound) {
  // Property: for any seed and crash time, once a participant crashes
  // the coordinator inactivates, and it does so within the analysis
  // bound of its last received beat (here conservatively: crash time +
  // one full round + detection bound).
  const auto [seed, crash_at] = GetParam();
  auto cfg = make_cluster(Variant::Binary, 1, 2, 10);
  cfg.seed = static_cast<std::uint64_t>(seed);
  ScaleCluster cluster{cfg};
  cluster.crash_participant_at(1, crash_at);
  cluster.start();
  cluster.run_until(crash_at + 1000);
  ASSERT_EQ(cluster.coordinator_status(), Status::InactiveNonVoluntarily);
  const Time bound =
      cluster.config().protocol.coordinator_detection_bound();
  // The last beat the coordinator received was sent at most one round
  // trip before the crash.
  EXPECT_LE(cluster.coordinator_inactivated_at(),
            crash_at + cfg.protocol.tmin + bound);
  EXPECT_GT(cluster.coordinator_inactivated_at(), crash_at);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndTimes, CrashDetectionSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(50, 123, 997)));

}  // namespace
}  // namespace ahb::hb
