#include <gtest/gtest.h>

#include "hb/participant.hpp"
#include "hb/plain.hpp"

namespace ahb::hb {
namespace {

Config make_config(Time tmin, Time tmax, Variant v, bool fixed = false) {
  Config c;
  c.tmin = tmin;
  c.tmax = tmax;
  c.variant = v;
  c.fixed_bounds = fixed;
  return c;
}

TEST(Participant, JoinedParticipantEchoesBeats) {
  Participant p{make_config(1, 10, Variant::Binary), 1};
  p.start(0);
  EXPECT_EQ(p.next_event_time(), 29);  // 3*tmax - tmin
  const auto actions = p.on_message(5, Message{0, true});
  ASSERT_EQ(actions.messages.size(), 1u);
  EXPECT_EQ(actions.messages[0].to, 0);
  EXPECT_TRUE(actions.messages[0].message.flag);
  EXPECT_EQ(p.next_event_time(), 5 + 29);  // deadline refreshed
}

TEST(Participant, FixedBoundsTightenDeadline) {
  Participant p{make_config(1, 10, Variant::Binary, true), 1};
  p.start(0);
  EXPECT_EQ(p.next_event_time(), 20);  // corrected 2*tmax
}

TEST(Participant, InactivatesAtDeadline) {
  Participant p{make_config(1, 10, Variant::Binary), 1};
  p.start(0);
  const auto actions = p.on_elapsed(29);
  EXPECT_TRUE(actions.inactivated);
  EXPECT_EQ(p.status(), Status::InactiveNonVoluntarily);
  EXPECT_EQ(p.inactivated_at(), 29);
}

TEST(Participant, StaleTimerIgnored) {
  Participant p{make_config(1, 10, Variant::Binary), 1};
  p.start(0);
  EXPECT_FALSE(p.on_elapsed(10).inactivated);
  EXPECT_EQ(p.status(), Status::Active);
}

TEST(Participant, ExpandingSendsJoinBeatsEveryTmin) {
  Participant p{make_config(3, 10, Variant::Expanding), 4};
  auto actions = p.start(0);
  // The first join beat goes out one join period after start-up (the
  // model's Fig. 6 timing), not at time zero.
  ASSERT_EQ(actions.messages.size(), 0u);
  EXPECT_EQ(p.next_event_time(), 3);

  actions = p.on_elapsed(3);
  ASSERT_EQ(actions.messages.size(), 1u);  // first join beat
  EXPECT_EQ(actions.messages[0].message.sender, 4);
  actions = p.on_elapsed(6);
  ASSERT_EQ(actions.messages.size(), 1u);
  EXPECT_FALSE(p.joined());
}

TEST(Participant, JoinCompletesOnFirstBeat) {
  Participant p{make_config(3, 10, Variant::Expanding), 4};
  p.start(0);
  const auto actions = p.on_message(5, Message{0, true});
  EXPECT_TRUE(p.joined());
  ASSERT_EQ(actions.messages.size(), 1u);  // reply to the beat
  // No more join beats are scheduled; the deadline rules.
  EXPECT_EQ(p.next_event_time(), 5 + 27);  // participant deadline
}

TEST(Participant, JoinPhaseDeadlineApplies) {
  Participant p{make_config(3, 10, Variant::Expanding), 4};
  p.start(0);
  // Join deadline is 3*tmax - tmin = 27 from start-up.
  Time now = 0;
  while (p.status() == Status::Active) {
    now = p.next_event_time();
    p.on_elapsed(now);
  }
  EXPECT_EQ(p.status(), Status::InactiveNonVoluntarily);
  EXPECT_EQ(p.inactivated_at(), 27);
}

TEST(Participant, FixedJoinDeadlineIsLonger) {
  Participant p{make_config(3, 10, Variant::Expanding, true), 4};
  p.start(0);
  Time now = 0;
  while (p.status() == Status::Active) {
    now = p.next_event_time();
    p.on_elapsed(now);
  }
  EXPECT_EQ(p.inactivated_at(), 23);  // 2*tmax + tmin
}

TEST(Participant, DynamicLeaveAnnouncedOnNextBeat) {
  Participant p{make_config(1, 10, Variant::Dynamic), 2};
  p.start(0);
  p.on_message(3, Message{0, true});  // joined
  p.request_leave();
  const auto actions = p.on_message(13, Message{0, true});
  ASSERT_EQ(actions.messages.size(), 1u);
  EXPECT_FALSE(actions.messages[0].message.flag);  // leave beat
  EXPECT_EQ(p.status(), Status::Left);
  EXPECT_EQ(p.next_event_time(), kNever);
}

TEST(Participant, LeaveAckIgnored) {
  Participant p{make_config(1, 10, Variant::Dynamic), 2};
  p.start(0);
  p.on_message(3, Message{0, true});
  const auto actions = p.on_message(5, Message{0, false});
  EXPECT_TRUE(actions.messages.empty());
  EXPECT_EQ(p.status(), Status::Active);
}

TEST(Participant, CrashStopsEverything) {
  Participant p{make_config(1, 10, Variant::Binary), 1};
  p.start(0);
  p.crash(5);
  EXPECT_EQ(p.status(), Status::CrashedVoluntarily);
  EXPECT_TRUE(p.on_message(6, Message{0, true}).messages.empty());
  EXPECT_FALSE(p.on_elapsed(40).inactivated);
  EXPECT_EQ(p.next_event_time(), kNever);
}

TEST(PlainSender, BeatsAtFixedPeriod) {
  PlainSender sender{1, 10};
  auto actions = sender.start(0);
  EXPECT_EQ(actions.messages.size(), 1u);
  EXPECT_EQ(sender.next_event_time(), 10);
  actions = sender.on_elapsed(10);
  EXPECT_EQ(actions.messages.size(), 1u);
  EXPECT_EQ(sender.next_event_time(), 20);
}

TEST(PlainSender, CrashSilences) {
  PlainSender sender{1, 10};
  sender.start(0);
  sender.crash(5);
  EXPECT_TRUE(sender.on_elapsed(10).messages.empty());
  EXPECT_EQ(sender.next_event_time(), kNever);
}

TEST(PlainDetector, SuspectsAfterKMisses) {
  PlainDetector det{10, 3, 0};
  det.start(0);
  EXPECT_EQ(det.next_event_time(), 30);
  det.on_message(8, Message{1, true});
  EXPECT_EQ(det.next_event_time(), 38);
  EXPECT_FALSE(det.on_elapsed(30).inactivated);
  const auto actions = det.on_elapsed(38);
  EXPECT_TRUE(actions.inactivated);
  EXPECT_TRUE(det.suspected());
  EXPECT_EQ(det.suspected_at(), 38);
}

TEST(PlainDetector, BeatAlwaysResets) {
  PlainDetector det{10, 1, 0};
  det.start(0);
  for (Time t = 5; t <= 95; t += 5) {
    det.on_message(t, Message{1, true});
    EXPECT_FALSE(det.on_elapsed(t).inactivated);
  }
  EXPECT_FALSE(det.suspected());
}

// Loss-free k=1 run over a link with one-way delays in [0, 1]: a beat
// at delay 0 and the next at delay 1 arrive period + 1 apart, which is
// delay jitter, not a missed beat.
TEST(PlainDetector, DelayJitterWithinTheBoundIsNotAMiss) {
  constexpr Time kPeriod = 16;
  PlainSender sender{1, kPeriod};
  PlainDetector det{kPeriod, 1, 1};
  sender.start(0);
  det.start(0);
  det.on_message(0, Message{1, true});  // first beat, delay 0
  const Time sent_at = sender.next_event_time();
  ASSERT_EQ(sender.on_elapsed(sent_at).messages.size(), 1u);
  // The detector's timer fires while the second beat is in flight.
  EXPECT_GT(det.next_event_time(), sent_at);
  EXPECT_FALSE(det.on_elapsed(sent_at).inactivated);
  det.on_message(sent_at + 1, Message{1, true});  // second beat, delay 1
  EXPECT_FALSE(det.on_elapsed(det.next_event_time() - 1).inactivated);
  EXPECT_FALSE(det.suspected());
  // A real silence is still caught: k periods plus the delay bound.
  EXPECT_EQ(det.next_event_time(), sent_at + 1 + kPeriod + 1);
  EXPECT_TRUE(det.on_elapsed(det.next_event_time()).inactivated);
}

}  // namespace
}  // namespace ahb::hb
