// Whole-system integration tests: coordinator + participants on the
// lossy discrete-event network (hb::ScaleCluster).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "hb/cluster_scale.hpp"
#include "hb/coordinator.hpp"
#include "hb/participant.hpp"

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

TEST(Cluster, SlowClockTimersDoNotPileUp) {
  // On a clock running 1000x slow, every beat re-arms a deadline ~1000
  // rounds ahead, so each round leaves one cancelled timer per member
  // that would wait ~1000 rounds to be dropped. The wheel's sweep keeps
  // them within a small multiple of what is pending.
  constexpr int kMembers = 20;
  ScaleCluster cluster{make_cluster(Variant::Static, kMembers, 2, 10)};
  for (int id = 1; id <= kMembers; ++id) cluster.set_drift_at(id, 0, 1, 1000);
  cluster.start();
  std::size_t most = 0;
  for (Time t = 100; t <= 50'000; t += 100) {
    cluster.run_until(t);
    most = std::max(most, cluster.stored_events());
  }
  EXPECT_EQ(cluster.coordinator_status(), Status::Active);
  EXPECT_EQ(cluster.member_count(), kMembers);
  EXPECT_LE(most, 4u * (kMembers + 1) + 64);
}

TEST(Cluster, SteadyStateHoldsOneEntryPerDeadline) {
  // Every beat pushes its receiver's deadline later, and the wheel
  // keeps that deadline's one entry in place (TimerWheel::retime)
  // instead of leaving a dead entry per beat. So a steady lossless
  // cluster holds one deadline per node plus the beats and replies in
  // flight: under 2.1 entries per node, where one dead entry per beat
  // received made it about 3.3.
  constexpr int kMembers = 10'000;
  ScaleCluster cluster{make_cluster(Variant::Static, kMembers, 4, 10)};
  cluster.start();
  cluster.run_until(200);  // warm-up: 20 rounds
  std::size_t most = 0;
  for (Time t = 201; t <= 500; ++t) {
    cluster.run_until(t);
    most = std::max(most, cluster.stored_events());
  }
  EXPECT_EQ(cluster.member_count(), kMembers);
  EXPECT_GT(cluster.stats().beats, 40u * kMembers);
  EXPECT_LE(static_cast<double>(most), 2.1 * kMembers);
}

TEST(Cluster, PackedWireImageRebuildsTheEncodedImage) {
  // An in-flight beat carries its image as one byte (pack_wire); the
  // image rebuilt at delivery must be the one the sender encoded and
  // the link corrupted, byte for byte.
  for (const int sender : {0, 1, 2, 63, 64, 255, 256, 9'999, 65'536,
                           100'000, 1 << 30}) {
    for (const bool flag : {false, true}) {
      const WireMessage clean = wire_encode(Message{sender, flag});
      EXPECT_EQ(unpack_wire(sender, pack_wire(flag, false, 0)).image,
                clean.image);
      for (std::uint64_t bit = 0; bit < 64; ++bit) {
        WireMessage flipped = clean;
        sim::corrupt_bit(flipped, bit);
        EXPECT_EQ(unpack_wire(sender, pack_wire(flag, true, bit)).image,
                  flipped.image)
            << "sender " << sender << " flag " << flag << " bit " << bit;
      }
    }
  }
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

/// Faults of one per-process/engine comparison, all on participant 1
/// (kNever: not injected).
struct Scenario {
  const char* name;
  Time crash_participant = kNever;
  Time crash_coordinator = kNever;
  Time leave = kNever;
  Time rejoin = kNever;
};

/// Final state both hosts report, node 0 first.
struct Outcome {
  std::vector<std::string> status;
  std::vector<Time> inactivated_at;
  std::vector<int> members;
  std::uint64_t rounds = 0;
};

/// The per-process API on a minimal lockstep host: every message is
/// delivered exactly `delay` after it was sent, and at each instant the
/// injected faults act first, then deliveries in send order, then due
/// timers — the engine's order for faults scheduled before start().
Outcome run_per_process(const ClusterConfig& config, Time delay,
                        const Scenario& s, Time horizon) {
  Coordinator coordinator{config.protocol, config.participants};
  std::vector<Participant> participants;
  for (int i = 1; i <= config.participants; ++i) {
    participants.emplace_back(config.protocol, i);
  }
  Participant& p1 = participants.front();
  std::map<Time, std::vector<Outbound>> inflight;
  Outcome out;
  const auto post = [&](Time now, const Actions& actions) {
    auto& slot = inflight[now + delay];
    slot.insert(slot.end(), actions.messages.begin(), actions.messages.end());
  };
  post(0, coordinator.start(0));
  for (Participant& p : participants) post(0, p.start(0));
  for (Time now = 0; now <= horizon; ++now) {
    if (now == s.crash_coordinator) coordinator.crash(now);
    if (now == s.crash_participant) p1.crash(now);
    if (now == s.leave && p1.status() == Status::Active) p1.request_leave();
    if (now == s.rejoin && p1.status() == Status::Left &&
        now >= proto::earliest_rejoin(p1.left_at(),
                                      config.protocol.timing())) {
      post(now, p1.rejoin(now));
    }
    if (const auto it = inflight.find(now); it != inflight.end()) {
      for (const Outbound& o : it->second) {
        post(now, o.to == 0
                      ? coordinator.on_message(now, o.message)
                      : participants[static_cast<std::size_t>(o.to - 1)]
                            .on_message(now, o.message));
      }
      inflight.erase(it);
    }
    if (coordinator.next_event_time() <= now) {
      const Actions actions = coordinator.on_elapsed(now);
      out.rounds += actions.round_completed ? 1 : 0;
      post(now, actions);
    }
    for (Participant& p : participants) {
      if (p.next_event_time() <= now) post(now, p.on_elapsed(now));
    }
  }
  out.status.push_back(to_string(coordinator.status()));
  out.inactivated_at.push_back(coordinator.inactivated_at());
  for (const Participant& p : participants) {
    out.status.push_back(to_string(p.status()));
    out.inactivated_at.push_back(p.inactivated_at());
  }
  out.members = coordinator.member_ids();
  return out;
}

Outcome run_engine(ClusterConfig config, Time delay, const Scenario& s,
                   Time horizon) {
  config.min_delay = delay;
  config.max_delay = delay;
  ScaleCluster cluster{config};
  if (s.crash_coordinator != kNever) {
    cluster.crash_coordinator_at(s.crash_coordinator);
  }
  if (s.crash_participant != kNever) {
    cluster.crash_participant_at(1, s.crash_participant);
  }
  if (s.leave != kNever) cluster.leave_at(1, s.leave);
  if (s.rejoin != kNever) cluster.rejoin_at(1, s.rejoin);
  cluster.start();
  cluster.run_until(horizon);
  Outcome out;
  out.status.push_back(to_string(cluster.coordinator_status()));
  out.inactivated_at.push_back(cluster.coordinator_inactivated_at());
  for (int i = 1; i <= config.participants; ++i) {
    out.status.push_back(to_string(cluster.participant_status(i)));
    out.inactivated_at.push_back(cluster.participant_inactivated_at(i));
    if (cluster.is_member(i)) out.members.push_back(i);
  }
  out.rounds = cluster.stats().rounds;
  return out;
}

TEST(PerProcessApi, MatchesEngineOnLosslessRuns) {
  // hb::Coordinator/hb::Participant and ScaleCluster share their
  // transitions (hb/transitions.hpp) but not their hosts; on a lossless
  // channel with constant delay d in [1, tmin/2] both must end every
  // node in the same state after the same number of rounds.
  constexpr Time kHorizon = 600;
  const std::vector<Scenario> scenarios = {
      {"no fault"},
      {"participant crash", 137},
      {"coordinator crash", kNever, 211},
      {"leave then rejoin", kNever, kNever, 100, 300},
  };
  const std::tuple<Time, Time, Time> timings[] = {{2, 10, 1}, {4, 16, 2}};
  for (const Variant variant :
       {Variant::Binary, Variant::RevisedBinary, Variant::TwoPhase,
        Variant::Static, Variant::Expanding, Variant::Dynamic}) {
    for (const auto& [tmin, tmax, delay] : timings) {
      for (const bool fixed : {false, true}) {
        for (const Scenario& s : scenarios) {
          if (s.leave != kNever && !proto::variant_leaves(variant)) continue;
          ClusterConfig config = make_cluster(
              variant, proto::variant_is_multi(variant) ? 3 : 1, tmin, tmax);
          config.protocol.fixed_bounds = fixed;
          SCOPED_TRACE(std::string(to_string(variant)) + " tmin=" +
                       std::to_string(tmin) + " fixed=" +
                       std::to_string(fixed) + ": " + s.name);
          const Outcome host = run_per_process(config, delay, s, kHorizon);
          const Outcome engine = run_engine(config, delay, s, kHorizon);
          EXPECT_EQ(host.status, engine.status);
          EXPECT_EQ(host.inactivated_at, engine.inactivated_at);
          EXPECT_EQ(host.members, engine.members);
          EXPECT_EQ(host.rounds, engine.rounds);
          EXPECT_GT(engine.rounds, 0u);
        }
      }
    }
  }
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
