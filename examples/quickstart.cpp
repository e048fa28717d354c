// Quickstart: the binary accelerated heartbeat protocol as a crash
// detector between two processes.
//
// A Coordinator (p[0]) and a Participant (p[1]) exchange heartbeats over
// a lossy network. The coordinator waits tmax between beats while the
// peer is healthy; on a missed round it halves its waiting time
// ("accelerates"), and once the wait would drop below tmin it concludes
// the peer (or the channel) is gone and deactivates itself — the
// guarantee the ICDCS'98 paper builds all its protocols around.
//
// Build & run:  ./build/examples/quickstart
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
    std::printf("[t=%5lld] node %d non-voluntarily inactivated\n",
                static_cast<long long>(event.at), event.node);
  }
};

}  // namespace

int main() {

  hb::ClusterConfig config;
  config.protocol.variant = hb::Variant::Binary;
  config.protocol.tmin = 2;   // round-trip delay bound
  config.protocol.tmax = 10;  // healthy beat period
  config.participants = 1;
  config.loss_probability = 0.02;
  config.seed = 7;

  InactivationLog log;
  hb::ScaleCluster cluster{config};
  cluster.add_sink(&log);

  // Inject a crash of the participant at t = 500.
  const sim::Time crash_at = 500;
  cluster.crash_participant_at(1, crash_at);

  cluster.start();
  cluster.run_until(2000);

  std::printf("\n--- outcome ---\n");
  std::printf("participant status: %s\n",
              to_string(cluster.participant_status(1)));
  std::printf("coordinator status: %s\n",
              to_string(cluster.coordinator_status()));
  const sim::Time detected = cluster.coordinator_inactivated_at();
  std::printf("crash injected at t=%lld, detected at t=%lld "
              "(delay %lld, guaranteed bound %lld)\n",
              static_cast<long long>(crash_at),
              static_cast<long long>(detected),
              static_cast<long long>(detected - crash_at),
              static_cast<long long>(
                  config.protocol.coordinator_detection_bound()));
  std::printf("messages: %llu sent, %llu delivered, %llu lost\n",
              static_cast<unsigned long long>(cluster.network_stats().sent),
              static_cast<unsigned long long>(
                  cluster.network_stats().delivered),
              static_cast<unsigned long long>(cluster.network_stats().lost));
  return 0;
}
