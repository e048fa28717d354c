// Failure-injection tests: the protocol's guarantee covers channel
// failure as well as process crashes ("either the respective process
// has failed or the communication medium is down") — when a link goes
// down permanently, both sides must deactivate within their bounds.
#include <gtest/gtest.h>

#include "hb/cluster_scale.hpp"

namespace ahb::hb {
namespace {

constexpr sim::LinkChange kLinkDown{.field = sim::LinkChange::Field::Down};
constexpr sim::LinkChange kLinkUp{.field = sim::LinkChange::Field::Up};

ClusterConfig base_config(Variant v, int participants) {
  ClusterConfig c;
  c.protocol.variant = v;
  c.protocol.tmin = 2;
  c.protocol.tmax = 10;
  c.participants = participants;
  return c;
}

/// Helper running a binary cluster whose only link dies at `down_at`.
struct LinkDownOutcome {
  Status coordinator;
  Status participant;
  sim::Time coord_at;
  sim::Time part_at;
};

LinkDownOutcome run_link_down(bool both_directions, sim::Time down_at,
                              std::uint64_t seed) {
  auto cfg = base_config(Variant::Binary, 1);
  cfg.seed = seed;
  ScaleCluster cluster{cfg};
  // Fault injection: flip the link(s) down at `down_at`.
  cluster.change_link_at(down_at, 0, 1, kLinkDown);
  if (both_directions) cluster.change_link_at(down_at, 1, 0, kLinkDown);
  cluster.start();
  cluster.run_until(down_at + 1000);
  return LinkDownOutcome{
      cluster.coordinator_status(), cluster.participant_status(1),
      cluster.coordinator_inactivated_at(),
      cluster.participant_inactivated_at(1)};
}

TEST(FailureInjection, FullLinkFailureDeactivatesEverybodyWithinBounds) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const sim::Time down_at = 305;
    const auto outcome = run_link_down(true, down_at, seed);
    EXPECT_EQ(outcome.coordinator, Status::InactiveNonVoluntarily);
    EXPECT_EQ(outcome.participant, Status::InactiveNonVoluntarily);
    // Coordinator: within its detection bound of the last beat; the last
    // beat was received at most one round-trip before the cut.
    Config cfg;
    cfg.tmin = 2;
    cfg.tmax = 10;
    EXPECT_LE(outcome.coord_at,
              down_at + cfg.tmin + cfg.coordinator_detection_bound());
    EXPECT_LE(outcome.part_at,
              down_at + cfg.tmin + cfg.participant_deadline());
  }
}

TEST(FailureInjection, ReverseDirectionFailureAloneStillDeactivates) {
  // Only replies are lost: the coordinator stops hearing back and
  // accelerates into inactivation; the participant then starves too.
  const auto outcome = run_link_down(false, 305, 7);
  // Forward link up: p1 keeps hearing beats until p0 dies.
  EXPECT_EQ(outcome.coordinator, Status::InactiveNonVoluntarily);
  EXPECT_EQ(outcome.participant, Status::InactiveNonVoluntarily);
  EXPECT_LT(outcome.coord_at, outcome.part_at);
}

TEST(FailureInjection, TransientLinkFlapIsSurvivable) {
  // A short outage (less than one acceleration ladder) must not kill
  // anything: the protocol recovers once beats flow again.
  auto cfg = base_config(Variant::Binary, 1);
  cfg.protocol.tmin = 1;
  cfg.protocol.tmax = 16;
  ScaleCluster cluster{cfg};
  cluster.change_link_at(300, 0, 1, kLinkDown);
  cluster.change_link_at(316, 0, 1, kLinkUp);
  cluster.start();
  cluster.run_until(5000);
  EXPECT_EQ(cluster.coordinator_status(), Status::Active);
  EXPECT_EQ(cluster.participant_status(1), Status::Active);
}

TEST(FailureInjection, StaticSingleMemberLinkFailureKillsWholeNetwork) {
  // Losing connectivity to ONE member of a static group deactivates the
  // coordinator (its tm[i] keeps halving) and therefore everyone: group
  // liveness in the 1998 design is all-or-nothing by construction.
  auto cfg = base_config(Variant::Static, 3);
  ScaleCluster cluster{cfg};
  cluster.change_link_at(300, 0, 2, kLinkDown);
  cluster.change_link_at(300, 2, 0, kLinkDown);
  cluster.start();
  cluster.run_until(5000);
  EXPECT_EQ(cluster.coordinator_status(), Status::InactiveNonVoluntarily);
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(cluster.participant_status(i),
              Status::InactiveNonVoluntarily)
        << i;
  }
}

}  // namespace
}  // namespace ahb::hb
