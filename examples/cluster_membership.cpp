// Cluster membership with the dynamic accelerated heartbeat protocol:
// nodes join a coordinator by beating, participate, and may leave
// gracefully — while a real crash still deactivates the whole network.
//
// Scenario (the kind of group-membership workload the ICDCS'98 paper
// motivates):
//   t=0    five worker nodes start joining
//   t=400  worker 2 leaves gracefully (maintenance)
//   t=800  worker 4 leaves gracefully
//   t=1200 worker 1 crashes hard
//   => the coordinator detects the crash and deactivates; the remaining
//      active workers follow within their deadline.
//
// Build & run:  ./build/examples/cluster_membership
#include <cstdio>

#include "hb/cluster_scale.hpp"

namespace {

using namespace ahb;

/// Prints every non-voluntary inactivation as it happens.
class InactivationLog final : public rv::EventSink {
 public:
  std::uint32_t protocol_interest() const override {
    return rv::protocol_bit(hb::ProtocolEvent::Kind::CoordinatorInactivated) |
           rv::protocol_bit(hb::ProtocolEvent::Kind::ParticipantInactivated);
  }
  void on_protocol_event(const hb::ProtocolEvent& event) override {
    std::printf("[t=%5lld] node %d deactivated non-voluntarily\n",
                static_cast<long long>(event.at), event.node);
  }
};

}  // namespace

int main() {

  hb::ClusterConfig config;
  config.protocol.variant = hb::Variant::Dynamic;
  config.protocol.tmin = 2;
  config.protocol.tmax = 20;
  // Keep the published 3*tmax - tmin participant deadline: the tightened
  // 2*tmax bound of the formal analysis is only exact under *zero* loss —
  // with it, a single lost beat leaves the next one arriving exactly at
  // the deadline (see EXPERIMENTS.md, "loss tolerance trade-off").
  config.protocol.fixed_bounds = false;
  config.participants = 5;
  config.loss_probability = 0.01;
  config.seed = 42;

  InactivationLog log;
  hb::ScaleCluster cluster{config};
  cluster.add_sink(&log);

  cluster.leave_at(2, 400);
  cluster.leave_at(4, 800);
  cluster.crash_participant_at(1, 1200);

  cluster.start();

  // Poll membership as the run progresses.
  for (const sim::Time checkpoint : {200, 600, 1000, 1190}) {
    cluster.run_until(checkpoint);
    std::printf("[t=%5lld] members:", static_cast<long long>(checkpoint));
    for (int id = 1; id <= config.participants; ++id) {
      if (cluster.is_member(id)) std::printf(" %d", id);
    }
    std::printf("\n");
  }

  cluster.run_until(3000);

  std::printf("\n--- final statuses ---\n");
  std::printf("coordinator: %s\n", to_string(cluster.coordinator_status()));
  for (int i = 1; i <= config.participants; ++i) {
    std::printf("worker %d:    %s\n", i,
                to_string(cluster.participant_status(i)));
  }
  std::printf(
      "\nGraceful departures (workers 2 and 4) did not disturb the\n"
      "cluster; the hard crash of worker 1 deactivated everyone else,\n"
      "as the protocol guarantees.\n");
  return 0;
}
