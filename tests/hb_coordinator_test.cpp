#include <gtest/gtest.h>

#include "hb/coordinator.hpp"

namespace ahb::hb {
namespace {

Config binary_config(Time tmin, Time tmax, Variant v = Variant::Binary) {
  Config c;
  c.tmin = tmin;
  c.tmax = tmax;
  c.variant = v;
  return c;
}

TEST(Coordinator, StartArmsFirstRoundWithoutBeating) {
  Coordinator coord{binary_config(1, 10), 1};
  const auto actions = coord.start(0);
  EXPECT_TRUE(actions.messages.empty());  // original binary waits first
  EXPECT_EQ(coord.next_event_time(), 10);
}

TEST(Coordinator, RevisedStartBeatsImmediately) {
  Coordinator coord{binary_config(1, 10, Variant::RevisedBinary), 1};
  const auto actions = coord.start(0);
  ASSERT_EQ(actions.messages.size(), 1u);
  EXPECT_EQ(actions.messages[0].to, 1);
  EXPECT_EQ(actions.messages[0].message.sender, 0);
}

TEST(Coordinator, FirstRoundCountsAsReceived) {
  // rcvd starts true, so the first timeout keeps t = tmax and beats.
  Coordinator coord{binary_config(1, 10), 1};
  coord.start(0);
  const auto actions = coord.on_elapsed(10);
  ASSERT_EQ(actions.messages.size(), 1u);
  EXPECT_EQ(coord.current_wait(), 10);
  EXPECT_EQ(coord.next_event_time(), 20);
}

TEST(Coordinator, MissedRoundHalvesWait) {
  Coordinator coord{binary_config(1, 10), 1};
  coord.start(0);
  coord.on_elapsed(10);  // round 1, rcvd (initial) -> t=10
  coord.on_elapsed(20);  // miss -> t=5
  EXPECT_EQ(coord.current_wait(), 5);
  EXPECT_EQ(coord.next_event_time(), 25);
  coord.on_elapsed(25);  // miss -> t=2
  EXPECT_EQ(coord.current_wait(), 2);
}

TEST(Coordinator, ReceivedBeatRestoresTmax) {
  Coordinator coord{binary_config(1, 10), 1};
  coord.start(0);
  coord.on_elapsed(10);
  coord.on_elapsed(20);  // miss -> t=5
  coord.on_message(22, Message{1, true});
  coord.on_elapsed(25);
  EXPECT_EQ(coord.current_wait(), 10);
}

TEST(Coordinator, InactivatesWhenWaitDropsBelowTmin) {
  Coordinator coord{binary_config(4, 10), 1};
  coord.start(0);
  coord.on_elapsed(10);              // t=10 (initial rcvd)
  coord.on_elapsed(20);              // miss -> t=5
  const auto actions = coord.on_elapsed(25);  // miss -> 2 < tmin
  EXPECT_TRUE(actions.inactivated);
  EXPECT_EQ(coord.status(), Status::InactiveNonVoluntarily);
  EXPECT_EQ(coord.inactivated_at(), 25);
  EXPECT_EQ(coord.next_event_time(), kNever);
}

TEST(Coordinator, DetectionWithinPaperBound) {
  // After the last received beat, self-inactivation happens within
  // 3*tmax - tmin when 2*tmin <= tmax (the corrected R1 bound).
  for (const Time tmin : {1, 2, 3, 5}) {
    Config cfg = binary_config(tmin, 10);
    Coordinator coord{cfg, 1};
    coord.start(0);
    coord.on_message(5, Message{1, true});  // last beat at t=5
    Time now = coord.next_event_time();
    while (coord.status() == Status::Active) {
      coord.on_elapsed(now);
      now = coord.next_event_time();
      if (now == kNever) break;
    }
    ASSERT_EQ(coord.status(), Status::InactiveNonVoluntarily);
    EXPECT_LE(coord.inactivated_at() - 5, cfg.coordinator_detection_bound())
        << "tmin=" << tmin;
  }
}

TEST(Coordinator, TwoPhaseDropsStraightToTmin) {
  Coordinator coord{binary_config(2, 10, Variant::TwoPhase), 1};
  coord.start(0);
  coord.on_elapsed(10);  // initial rcvd -> 10
  coord.on_elapsed(20);  // miss -> tmin = 2
  EXPECT_EQ(coord.current_wait(), 2);
  const auto actions = coord.on_elapsed(22);  // second miss at tmin -> NV
  EXPECT_TRUE(actions.inactivated);
}

TEST(Coordinator, StaticTracksMembersIndependently) {
  Config cfg = binary_config(1, 10, Variant::Static);
  Coordinator coord{cfg, 3};
  coord.start(0);
  auto actions = coord.on_elapsed(10);
  EXPECT_EQ(actions.messages.size(), 3u);  // broadcast to all members
  // Only member 2 replies.
  coord.on_message(12, Message{2, true});
  coord.on_elapsed(20);
  // t = min over members: members 1,3 halved to 5, member 2 at 10.
  EXPECT_EQ(coord.current_wait(), 5);
}

TEST(Coordinator, CrashSilencesEverything) {
  Coordinator coord{binary_config(1, 10), 1};
  coord.start(0);
  coord.crash(3);
  EXPECT_EQ(coord.status(), Status::CrashedVoluntarily);
  EXPECT_EQ(coord.next_event_time(), kNever);
  EXPECT_TRUE(coord.on_elapsed(10).messages.empty());
  EXPECT_TRUE(coord.on_message(11, Message{1, true}).messages.empty());
}

TEST(Coordinator, ExpandingStartsEmptyAndRegistersJoiners) {
  Config cfg = binary_config(1, 10, Variant::Expanding);
  Coordinator coord{cfg, 5};
  coord.start(0);
  EXPECT_TRUE(coord.member_ids().empty());
  // A beat never inactivates an empty coordinator.
  auto actions = coord.on_elapsed(10);
  EXPECT_FALSE(actions.inactivated);
  EXPECT_TRUE(actions.messages.empty());  // no members to address

  coord.on_message(12, Message{5, true});
  EXPECT_TRUE(coord.is_member(5));
  actions = coord.on_elapsed(20);
  ASSERT_EQ(actions.messages.size(), 1u);
  EXPECT_EQ(actions.messages[0].to, 5);
}

TEST(Coordinator, StaticIgnoresUnknownSenders) {
  Coordinator coord{binary_config(1, 10, Variant::Static), 2};
  coord.start(0);
  coord.on_message(5, Message{9, true});
  EXPECT_FALSE(coord.is_member(9));
}

TEST(Coordinator, DynamicLeaveRemovesMemberAndAcks) {
  Config cfg = binary_config(1, 10, Variant::Dynamic);
  Coordinator coord{cfg, 7};
  coord.start(0);
  coord.on_message(3, Message{7, true});
  EXPECT_TRUE(coord.is_member(7));
  const auto actions = coord.on_message(5, Message{7, false});
  EXPECT_FALSE(coord.is_member(7));
  ASSERT_EQ(actions.messages.size(), 1u);  // leave acknowledgement
  EXPECT_EQ(actions.messages[0].to, 7);
  EXPECT_FALSE(actions.messages[0].message.flag);
  // Departure must not inactivate the coordinator.
  EXPECT_FALSE(coord.on_elapsed(10).inactivated);
  EXPECT_FALSE(coord.on_elapsed(20).inactivated);
}

TEST(Coordinator, StaleTimerIsIgnored) {
  Coordinator coord{binary_config(1, 10), 1};
  coord.start(0);
  const auto actions = coord.on_elapsed(4);  // before the deadline
  EXPECT_TRUE(actions.messages.empty());
  EXPECT_EQ(coord.next_event_time(), 10);
}

}  // namespace
}  // namespace ahb::hb
