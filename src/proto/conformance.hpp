// Trace conformance between the executable hb engines and the
// timed-automata models.
//
// A TraceRecorder captures the protocol-level event stream of a
// simulated hb::ScaleCluster run (beats, replies, joins, leaves, crashes,
// inactivations — each with its simulation time and network message
// id). replay_cluster_trace then asks the membership question: is that
// timed trace a trace of the ta::Network model built for the same
// variant and timing? The answer comes from a guided-successor walk
// (mc/guided.hpp) in which the recorded events are the observable
// transitions and everything model-internal (channel loss, delivery
// bookkeeping, timeout edges) is free to interleave.
//
// Message identity is what makes the replay sound on nonzero-delay
// traces: every send and every delivery is a separate observation
// paired by the monotone id the transport stamped on the message, so a
// delayed delivery matches the channel edge of *its own* send (a
// delivered join beat and a delivered reply are distinct actions even
// though their payloads are identical), duplicated deliveries collapse
// onto their original message, and ids that never reach a delivery
// surface as explicit loss facts (ReplayResult::lost_ids).
//
// Because both layers derive every timing law from the shared kernel in
// proto/timing.hpp, a successful replay is evidence the layers agree; a
// drift in either one shows up as a trace the other cannot reproduce
// (see the mutation canaries in tests/proto_conformance_test.cpp).
//
// Recording assumptions: fewer than 10 participants (event-to-label
// matching is by substring; "p1." must not be a prefix of another
// process name), and network delays within the protocol's channel
// assumption (one-way delay <= tmin/2) if the replay is expected to
// succeed — out-of-spec chaos traces replay too, but the model rejects
// them, which is the point of feeding shrunk artifacts back in.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hb/cluster_scale.hpp"
#include "mc/guided.hpp"
#include "models/options.hpp"

namespace ahb::proto {

/// Captures the protocol-event trace of one cluster execution. Install
/// before ScaleCluster::start(); the recorder must outlive the run.
class TraceRecorder final : public rv::EventSink {
 public:
  explicit TraceRecorder(hb::ScaleCluster& cluster) { cluster.add_sink(this); }

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void on_protocol_event(const hb::ProtocolEvent& e) override {
    events_.push_back(e);
  }

  const std::vector<hb::ProtocolEvent>& events() const { return events_; }

 private:
  std::vector<hb::ProtocolEvent> events_;
};

/// The model build options that mirror a cluster configuration: same
/// timing, participant count, scheduling fix and bound fix. `rejoin`
/// must be Graceful when the run injects rejoins, None otherwise.
models::BuildOptions model_options_for(
    const hb::ClusterConfig& config,
    models::BuildOptions::Rejoin rejoin = models::BuildOptions::Rejoin::None);

/// How recorded events translate into observations.
enum class ObservationMode {
  /// Send and delivery observations are paired by message id: delivery
  /// needles name the channel edge of the delivering message, duplicate
  /// deliveries are folded onto their original, stale join beats
  /// (delivered after the sender joined) map to the model's silent
  /// void_join, and the loss edges of messages the future delivers are
  /// forbidden while in flight.
  PerMessageIdentity,
  /// The pre-identity matcher, kept as a mutation canary: needles name
  /// only the payload-level process edges, so two identical-payload
  /// in-flight messages are interchangeable and duplicates are
  /// unrepresentable. Known-unsound on nonzero-delay traces.
  PayloadOnly,
};

/// Translates recorded events into timed observations over the model's
/// transition labels (exposed for tests/diagnostics). Events with equal
/// timestamps are canonically reordered first (send observations hop
/// before delivery observations of other nodes at the same instant), so
/// verdicts depend on the timed word, not on simulator queue internals.
std::vector<mc::GuidedObservation> to_observations(
    std::span<const hb::ProtocolEvent> events,
    ObservationMode mode = ObservationMode::PerMessageIdentity);

/// The canonical equal-timestamp ordering applied by to_observations
/// (exposed for the tie-pinning test): a send event moves before
/// delivery events of *other* nodes at the same instant; same-node
/// causal chains (deliver, then react) and internal events keep their
/// recorded order.
std::vector<hb::ProtocolEvent> canonical_event_order(
    std::span<const hb::ProtocolEvent> events);

/// Classifies a model transition label as observable (it corresponds to
/// a recordable protocol event) or silent (model-internal).
bool is_observable_label(const std::string& label);

struct ReplayResult {
  bool ok = false;
  std::size_t events = 0;   ///< recorded events in the trace
  std::size_t matched = 0;  ///< furthest observation any model run reproduced
  std::uint64_t expanded = 0;
  std::size_t memo_states = 0;  ///< memo set size of the guided search
  std::size_t memo_bytes = 0;   ///< memo store footprint in bytes
  /// Message ids sent but never observed delivered (explicit loss).
  std::vector<std::uint64_t> lost_ids;
  std::string diagnostic;   ///< on failure: the first unmatched event
};

/// Replays a recorded trace through the model built from `flavor` and
/// `options`. The mutation canaries call this directly with perturbed
/// options or the PayloadOnly mode; normal conformance checks go
/// through replay_cluster_trace.
ReplayResult replay_through_model(
    models::Flavor flavor, const models::BuildOptions& options,
    std::span<const hb::ProtocolEvent> events,
    const mc::GuidedLimits& limits = {},
    ObservationMode mode = ObservationMode::PerMessageIdentity);

/// One-call conformance check: replays `events`, recorded from a cluster
/// running `config`, through the matching timed-automata model.
ReplayResult replay_cluster_trace(
    const hb::ClusterConfig& config, std::span<const hb::ProtocolEvent> events,
    models::BuildOptions::Rejoin rejoin = models::BuildOptions::Rejoin::None,
    const mc::GuidedLimits& limits = {},
    ObservationMode mode = ObservationMode::PerMessageIdentity);

}  // namespace ahb::proto
