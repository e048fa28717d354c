// Tests for the runtime-verification layer (src/rv): the event-sink
// plumbing, the suspicion-ladder monitor's negative controls (each
// obligation demonstrably fires), the availability scorer's interval
// arithmetic, and the stream-determinism of the requirement monitor
// (identical verdicts live on the engine and replayed offline).
#include <gtest/gtest.h>

#include <algorithm>
#include <variant>
#include <vector>

#include "hb/cluster_scale.hpp"
#include "rv/availability.hpp"
#include "rv/monitor.hpp"
#include "rv/sink_chain.hpp"
#include "rv/suspicion.hpp"

namespace ahb {
namespace {

using Kind = hb::ProtocolEvent::Kind;

hb::ProtocolEvent ev(Kind kind, int node, sim::Time at) {
  return hb::ProtocolEvent{kind, at, node, 0, 0};
}

rv::SuspicionMonitor::Config suspicion_config(proto::Variant variant, int tmin,
                                              int tmax, int participants) {
  rv::SuspicionMonitor::Config config;
  config.variant = variant;
  config.timing = proto::Timing{tmin, tmax};
  config.participants = participants;
  return config;
}

// --- suspicion monitor: negative controls ---------------------------------

TEST(SuspicionMonitor, PacingAndEarliestDetectionFire) {
  // S1 negative control: two round closes tmin/2 apart (a drifting
  // coordinator clock) trip the pacing check, and the member whose
  // suspicion level rises across those rushed rounds trips the
  // earliest-detection check.
  const auto config = suspicion_config(proto::Variant::Binary, 4, 10, 1);
  const auto bounds = rv::MonitorBounds::defaults(config.timing,
                                                  config.variant, true);
  rv::SuspicionMonitor monitor{config, bounds};
  monitor.on_protocol_event(ev(Kind::CoordinatorReceivedBeat, 1, 10));
  monitor.on_protocol_event(ev(Kind::CoordinatorBeat, 0, 10));
  monitor.on_protocol_event(ev(Kind::CoordinatorBeat, 0, 12));
  ASSERT_EQ(monitor.violations().size(), 2u);
  EXPECT_EQ(monitor.violations()[0].requirement, 4);
  EXPECT_EQ(monitor.violations()[0].node, 0);  // pacing
  EXPECT_EQ(monitor.violations()[1].requirement, 4);
  EXPECT_EQ(monitor.violations()[1].node, 1);  // level 1 before tmin slack
}

TEST(SuspicionMonitor, InSpecPacingStaysSilent) {
  // Control for the control: closes exactly tmin apart and a level that
  // rises no faster than one per tmin violate nothing.
  const auto config = suspicion_config(proto::Variant::Binary, 4, 10, 1);
  const auto bounds = rv::MonitorBounds::defaults(config.timing,
                                                  config.variant, true);
  rv::SuspicionMonitor monitor{config, bounds};
  monitor.on_protocol_event(ev(Kind::CoordinatorBeat, 0, 10));
  monitor.on_protocol_event(ev(Kind::CoordinatorBeat, 0, 14));
  monitor.on_protocol_event(ev(Kind::CoordinatorBeat, 0, 18));
  EXPECT_EQ(monitor.level(1), 2);
  EXPECT_TRUE(monitor.violations().empty());
}

TEST(SuspicionMonitor, MandatorySuspicionMissedFiresAtFinish) {
  // S2 negative control: a member crashes and the (synthetic)
  // coordinator never closes another round, so the threshold is never
  // reached; the obligation expires at crash + suspicion_detection_bound
  // = 11 + (4 + 3*10) = 45. A later fabricated beat must NOT refresh
  // the armed deadline (that would let forged traffic defer detection).
  const auto config = suspicion_config(proto::Variant::Binary, 4, 10, 1);
  const auto bounds = rv::MonitorBounds::defaults(config.timing,
                                                  config.variant, true);
  rv::SuspicionMonitor monitor{config, bounds};
  monitor.on_protocol_event(ev(Kind::ParticipantCrashed, 1, 11));
  monitor.on_protocol_event(ev(Kind::CoordinatorReceivedBeat, 1, 44));
  monitor.finish(200);
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations()[0].requirement, 4);
  EXPECT_EQ(monitor.violations()[0].node, 1);
  EXPECT_EQ(monitor.violations()[0].deadline, 45);
}

TEST(SuspicionMonitor, ReachingTheThresholdDischarges) {
  // The coordinator that does count its misses owes nothing: two missed
  // closes reach the threshold (default 2) before the deadline.
  const auto config = suspicion_config(proto::Variant::Binary, 4, 10, 1);
  const auto bounds = rv::MonitorBounds::defaults(config.timing,
                                                  config.variant, true);
  rv::SuspicionMonitor monitor{config, bounds};
  monitor.on_protocol_event(ev(Kind::ParticipantCrashed, 1, 11));
  monitor.on_protocol_event(ev(Kind::CoordinatorBeat, 0, 20));
  monitor.on_protocol_event(ev(Kind::CoordinatorBeat, 0, 30));
  monitor.on_protocol_event(ev(Kind::CoordinatorBeat, 0, 40));
  monitor.finish(200);
  EXPECT_EQ(monitor.level(1), 2);
  EXPECT_TRUE(monitor.violations().empty());
}

TEST(SuspicionMonitor, CoordinatorStopDischargesObligations) {
  // Once the coordinator itself stops, no further detection is owed —
  // the all-or-nothing inactivation IS the detection.
  const auto config = suspicion_config(proto::Variant::Binary, 4, 10, 1);
  const auto bounds = rv::MonitorBounds::defaults(config.timing,
                                                  config.variant, true);
  rv::SuspicionMonitor monitor{config, bounds};
  monitor.on_protocol_event(ev(Kind::ParticipantCrashed, 1, 11));
  monitor.on_protocol_event(ev(Kind::CoordinatorInactivated, 0, 30));
  monitor.finish(200);
  EXPECT_TRUE(monitor.violations().empty());
}

TEST(SuspicionMonitor, PublishedLevelMayNotRegressWithoutABeat) {
  // S3 negative control: an external detector publishing 2 then 1 with
  // no intervening registered beat is a monotonicity bug; after a fresh
  // beat the drop to 0 is the expected reset.
  const auto config = suspicion_config(proto::Variant::Binary, 4, 10, 1);
  const auto bounds = rv::MonitorBounds::defaults(config.timing,
                                                  config.variant, true);
  rv::SuspicionMonitor monitor{config, bounds};
  monitor.note_level(1, 2, 50);
  monitor.note_level(1, 1, 60);
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations()[0].requirement, 4);
  EXPECT_EQ(monitor.violations()[0].node, 1);
  monitor.on_protocol_event(ev(Kind::CoordinatorReceivedBeat, 1, 70));
  monitor.note_level(1, 0, 80);
  EXPECT_EQ(monitor.violations().size(), 1u);
}

// --- availability scorer --------------------------------------------------

TEST(AvailabilityStats, IntervalsRecoveriesAndDetectionSamples) {
  rv::AvailabilityStats stats{2};
  stats.on_protocol_event(ev(Kind::ParticipantCrashed, 1, 100));
  stats.on_protocol_event(ev(Kind::ParticipantRejoined, 1, 350));
  stats.on_protocol_event(ev(Kind::ParticipantLeft, 2, 100));
  stats.on_protocol_event(ev(Kind::CoordinatorReceivedLeave, 2, 130));
  stats.finish(1000);

  EXPECT_EQ(stats.up_time(1), 750);  // [0,100) + [350,1000)
  EXPECT_EQ(stats.down_time(1), 250);
  EXPECT_EQ(stats.recoveries(1), 1u);
  EXPECT_EQ(stats.up_time(2), 100);
  EXPECT_EQ(stats.down_time(2), 900);
  EXPECT_EQ(stats.up_time(0), 1000);  // the coordinator never stopped

  const auto& summary = stats.summary();
  EXPECT_EQ(summary.up_time, 1850);
  EXPECT_EQ(summary.down_time, 1150);
  EXPECT_EQ(summary.recoveries, 1u);
  // One detection sample: the leave beat landed 30 after the departure;
  // bit_width(30) == 5, so it falls in histogram bucket 5.
  EXPECT_EQ(summary.detections, 1u);
  EXPECT_EQ(summary.detection_total, 30);
  EXPECT_EQ(summary.detection_max, 30);
  EXPECT_EQ(summary.detection_hist[5], 1u);
  EXPECT_DOUBLE_EQ(summary.up_fraction(), 1850.0 / 3000.0);
}

TEST(AvailabilityStats, SummariesSumAcrossRuns) {
  rv::AvailabilityStats a{1};
  a.on_protocol_event(ev(Kind::ParticipantCrashed, 1, 10));
  a.finish(100);
  rv::AvailabilityStats b{1};
  b.finish(100);
  rv::AvailabilitySummary total = a.summary();
  total += b.summary();
  EXPECT_EQ(total.up_time, 100 + 10 + 200);  // a: coord 100 + p1 10; b: 200
  EXPECT_EQ(total.down_time, 90);
}

// --- sink chain and interest masks ----------------------------------------

class CountingSink final : public rv::EventSink {
 public:
  explicit CountingSink(std::uint32_t mask) : mask_(mask) {}
  std::uint32_t protocol_interest() const override { return mask_; }
  void on_protocol_event(const hb::ProtocolEvent& event) override {
    ++count_;
    kinds_.push_back(event.kind);
  }
  std::uint64_t count() const { return count_; }
  const std::vector<Kind>& kinds() const { return kinds_; }

 private:
  std::uint32_t mask_;
  std::uint64_t count_ = 0;
  std::vector<Kind> kinds_;
};

TEST(SinkChain, InterestMasksGateDelivery) {
  // A narrow sink sees exactly the CoordinatorBeat subsequence of what
  // a full-interest sink sees, and a zero-interest sink sees nothing.
  hb::ClusterConfig config;
  config.protocol.variant = hb::Variant::Expanding;
  config.protocol.tmin = 4;
  config.protocol.tmax = 10;
  config.participants = 2;
  hb::ScaleCluster cluster{config};

  CountingSink narrow{rv::protocol_bit(Kind::CoordinatorBeat)};
  CountingSink full{rv::kAllProtocolEvents};
  CountingSink deaf{0};
  cluster.add_sink(&narrow);
  cluster.add_sink(&full);
  cluster.add_sink(&deaf);

  cluster.start();
  cluster.run_until(100);
  cluster.sinks().finish(100);

  ASSERT_GT(full.count(), 0u);
  EXPECT_EQ(deaf.count(), 0u);
  const auto beats = static_cast<std::uint64_t>(
      std::count(full.kinds().begin(), full.kinds().end(),
                 Kind::CoordinatorBeat));
  EXPECT_EQ(narrow.count(), beats);
  EXPECT_TRUE(std::all_of(
      narrow.kinds().begin(), narrow.kinds().end(),
      [](Kind kind) { return kind == Kind::CoordinatorBeat; }));
}

// --- stream determinism ---------------------------------------------------

/// Records the protocol and channel events of a run in emission order.
class StreamRecorder final : public rv::EventSink {
 public:
  using Event = std::variant<hb::ProtocolEvent, sim::ChannelEvent>;
  std::uint32_t channel_interest() const override {
    return rv::kAllChannelEvents;
  }
  void on_protocol_event(const hb::ProtocolEvent& event) override {
    events.emplace_back(event);
  }
  void on_channel_event(const sim::ChannelEvent& event) override {
    events.emplace_back(event);
  }
  std::vector<Event> events;
};

TEST(MonitorEquivalence, LiveAndReplayedStreamsYieldIdenticalVerdicts) {
  // An out-of-spec configuration (delays up to tmax on a tmin=4
  // protocol — round trips far beyond the channel assumption) trips the
  // requirement monitor. Its verdict is a function of the event stream
  // alone: attached live to the engine or fed the recorded stream
  // afterwards, it reports the same violations, in the same order, at
  // the same deadlines.
  hb::ClusterConfig config;
  config.protocol.variant = hb::Variant::Static;
  config.protocol.tmin = 4;
  config.protocol.tmax = 10;
  config.participants = 3;
  config.min_delay = 0;
  config.max_delay = 10;
  config.seed = 11;

  rv::RequirementMonitor::Config monitor_config;
  monitor_config.variant = config.protocol.variant;
  monitor_config.timing = proto::Timing{config.protocol.tmin,
                                        config.protocol.tmax};
  monitor_config.participants = config.participants;
  const auto bounds = rv::MonitorBounds::defaults(
      monitor_config.timing, monitor_config.variant, true);

  hb::ScaleCluster cluster{config};
  rv::RequirementMonitor live{monitor_config, bounds};
  StreamRecorder recorder;
  live.attach(cluster);
  cluster.add_sink(&recorder);
  cluster.start();
  cluster.run_until(400);
  cluster.sinks().finish(400);

  rv::RequirementMonitor replayed{monitor_config, bounds};
  rv::SinkChain chain;
  chain.add(&replayed);
  for (const auto& event : recorder.events) {
    std::visit(
        [&](const auto& e) {
          if (chain.wants(e.kind)) chain.emit(e);
        },
        event);
  }
  chain.finish(400);

  ASSERT_FALSE(live.violations().empty())
      << "out-of-spec delays never tripped the monitor";
  ASSERT_EQ(live.violations().size(), replayed.violations().size());
  for (std::size_t i = 0; i < live.violations().size(); ++i) {
    EXPECT_EQ(live.violations()[i].key(), replayed.violations()[i].key());
    EXPECT_EQ(live.violations()[i].at, replayed.violations()[i].at);
  }
  EXPECT_EQ(live.events_seen(), replayed.events_seen());
}

TEST(MonitorIntegration, InSpecCrashRunStaysCleanWithFullStack) {
  // The full monitor stack on a live in-spec run: one participant
  // crashes, the all-or-nothing coordinator eventually inactivates, the
  // survivors stop on their own deadlines. No monitor may fire, and the
  // availability scorer must see the outage.
  hb::ClusterConfig config;
  config.protocol.variant = hb::Variant::Expanding;
  config.protocol.tmin = 4;
  config.protocol.tmax = 10;
  config.participants = 3;
  hb::ScaleCluster cluster{config};
  cluster.crash_participant_at(1, 50);

  rv::RequirementMonitor::Config monitor_config;
  monitor_config.variant = config.protocol.variant;
  monitor_config.timing = proto::Timing{config.protocol.tmin,
                                        config.protocol.tmax};
  monitor_config.participants = config.participants;
  const auto bounds = rv::MonitorBounds::defaults(
      monitor_config.timing, monitor_config.variant, true);
  rv::RequirementMonitor requirements{monitor_config, bounds};
  requirements.attach(cluster);

  auto s_config = suspicion_config(config.protocol.variant,
                                   config.protocol.tmin, config.protocol.tmax,
                                   config.participants);
  rv::SuspicionMonitor suspicion{s_config, bounds};
  suspicion.attach(cluster);
  rv::AvailabilityStats availability{config.participants};
  cluster.add_sink(&availability);

  cluster.start();
  cluster.run_until(600);
  cluster.sinks().finish(600);

  EXPECT_TRUE(requirements.violations().empty());
  EXPECT_TRUE(suspicion.violations().empty());
  EXPECT_EQ(availability.summary().recoveries, 0u);
  EXPECT_GT(availability.summary().down_time, 0);
  EXPECT_LT(availability.summary().up_fraction(), 1.0);
  EXPECT_GE(availability.summary().detections, 1u);
}

}  // namespace
}  // namespace ahb
