// Randomized end-to-end properties: the DES analogue of the formal
// requirements, asserted over many random schedules/seeds.
//
//   (R2/R3 analogue) nobody inactivates non-voluntarily unless a message
//   was actually lost or somebody crashed;
//   (R1/liveness analogue) once somebody crashes, the whole network is
//   inactive within the analytic bounds;
//   determinism: identical seeds give identical histories.
#include <gtest/gtest.h>

#include "hb/cluster_scale.hpp"
#include "util/rng.hpp"

namespace ahb::hb {
namespace {

struct Scenario {
  Variant variant;
  int participants;
  Time tmin, tmax;
  double loss;
};

class RandomRuns : public ::testing::TestWithParam<int> {};

TEST_P(RandomRuns, NoSpuriousInactivationWithoutLossOrCrash) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng{seed};
  const Scenario scenarios[] = {
      {Variant::Binary, 1, 2, 10, 0.0},
      {Variant::Static, 3, 2, 12, 0.0},
      {Variant::Expanding, 2, 3, 12, 0.0},
      {Variant::Dynamic, 2, 2, 10, 0.0},
  };
  const auto& sc = scenarios[rng.below(4)];

  ClusterConfig config;
  config.protocol.variant = sc.variant;
  config.protocol.tmin = sc.tmin;
  config.protocol.tmax = sc.tmax;
  config.participants = sc.participants;
  config.loss_probability = sc.loss;
  config.seed = seed;

  ScaleCluster cluster{config};
  // Random graceful leaves are allowed (they must not kill anyone).
  if (sc.variant == Variant::Dynamic && rng.chance(0.5)) {
    cluster.leave_at(1, static_cast<sim::Time>(100 + rng.below(400)));
  }
  cluster.start();
  cluster.run_until(static_cast<sim::Time>(2000 + rng.below(3000)));

  ASSERT_EQ(cluster.network_stats().lost, 0u);
  EXPECT_NE(cluster.coordinator_status(),
            Status::InactiveNonVoluntarily);
  for (int i = 1; i <= sc.participants; ++i) {
    EXPECT_NE(cluster.participant_status(i),
              Status::InactiveNonVoluntarily)
        << to_string(sc.variant) << " participant " << i;
  }
}

TEST_P(RandomRuns, CrashDeactivatesWholeNetworkWithinBounds) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng{seed ^ 0xabcdef};
  ClusterConfig config;
  config.protocol.variant = rng.chance(0.5) ? Variant::Binary
                                            : Variant::Static;
  config.protocol.tmin = static_cast<Time>(1 + rng.below(4));
  config.protocol.tmax = static_cast<Time>(8 + rng.below(9));
  config.participants =
      config.protocol.variant == Variant::Binary
          ? 1
          : static_cast<int>(1 + rng.below(4));
  config.seed = seed;

  ScaleCluster cluster{config};
  const int victim = static_cast<int>(1 + rng.below(
                         static_cast<std::uint64_t>(config.participants)));
  const auto crash_at = static_cast<sim::Time>(50 + rng.below(200));
  cluster.crash_participant_at(victim, crash_at);
  cluster.start();

  const Config& cfg = config.protocol;
  // Coordinator detects within its bound (+ one in-flight delivery);
  // then everyone else within the participant deadline of the
  // coordinator's death.
  const sim::Time all_dead_by = crash_at + cfg.tmin +
                                cfg.coordinator_detection_bound() +
                                cfg.participant_deadline() + cfg.tmin;
  cluster.run_until(all_dead_by + 1);
  EXPECT_TRUE(cluster.all_inactive())
      << to_string(cfg.variant) << " tmin=" << cfg.tmin
      << " tmax=" << cfg.tmax << " n=" << config.participants
      << " victim=" << victim << " crash_at=" << crash_at;
  EXPECT_LE(cluster.coordinator_inactivated_at(),
            crash_at + cfg.tmin + cfg.coordinator_detection_bound());
}

TEST_P(RandomRuns, IdenticalSeedsGiveIdenticalHistories) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const auto run = [&] {
    ClusterConfig config;
    config.protocol.variant = Variant::Static;
    config.protocol.tmin = 2;
    config.protocol.tmax = 9;
    config.participants = 2;
    config.loss_probability = 0.15;
    config.seed = seed;
    ScaleCluster cluster{config};
    cluster.start();
    cluster.run_until(4000);
    return std::tuple{
        cluster.network_stats().sent,     cluster.network_stats().delivered,
        cluster.network_stats().lost,     cluster.coordinator_status(),
        cluster.coordinator_inactivated_at(),
        cluster.participant_status(1),  cluster.participant_status(2),
    };
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRuns,
                         ::testing::Range(1, 26));  // 25 seeds x 3 properties

}  // namespace
}  // namespace ahb::hb
