#include <gtest/gtest.h>

#include "hb/failure_detector.hpp"

namespace ahb::hb {
namespace {

Config static_config(Time tmin, Time tmax) {
  Config c;
  c.tmin = tmin;
  c.tmax = tmax;
  c.variant = Variant::Static;
  return c;
}

/// Drives the detector round by round; `replies` tells which members
/// answer each round.
struct Harness {
  FailureDetector detector;
  Time now = 0;

  explicit Harness(int members, int suspect_after = 2)
      : detector(static_config(1, 16), members, suspect_after) {
    detector.start(0);
  }

  void round(const std::vector<int>& replies) {
    now = detector.next_event_time();
    detector.on_elapsed(now);
    for (const int id : replies) {
      detector.on_message(now + 1, Message{id, true});
    }
  }
};

TEST(FailureDetector, NoSuspicionWhileEveryoneReplies) {
  Harness h{3};
  for (int r = 0; r < 10; ++r) h.round({1, 2, 3});
  EXPECT_TRUE(h.detector.suspected().empty());
  EXPECT_FALSE(h.detector.suspects(2));
  EXPECT_EQ(h.detector.missed_rounds(2), 0);
}

TEST(FailureDetector, SilentMemberBecomesSuspected) {
  // Misses are accounted when the round *closes* (at the next timeout):
  // after round k is driven, the suspicion state reflects round k-1.
  Harness h{3, /*suspect_after=*/2};
  h.round({1, 2, 3});
  h.round({1, 3});  // member 2 silent in this round...
  h.round({1, 3});  // ...which closes here: 1 recorded miss
  EXPECT_EQ(h.detector.missed_rounds(2), 1);
  EXPECT_FALSE(h.detector.suspects(2));
  h.round({1, 3});  // second silent round closes: 2 recorded misses
  EXPECT_EQ(h.detector.missed_rounds(2), 2);
  EXPECT_TRUE(h.detector.suspects(2));
  EXPECT_EQ(h.detector.suspected(), (std::vector<int>{2}));
  EXPECT_FALSE(h.detector.suspects(1));
}

TEST(FailureDetector, SuspicionIsRevokedOnRecovery) {
  // Eventually-perfect style: a reply restores trust (tm resets to
  // tmax at the close of the round in which the beat arrived).
  Harness h{2, 1};
  h.round({1, 2});
  h.round({1});     // member 2 silent here
  h.round({1, 2});  // miss recorded as the round closes; 2 answers again
  EXPECT_TRUE(h.detector.suspects(2));
  h.round({1, 2});  // the reply round closes: trust restored
  EXPECT_FALSE(h.detector.suspects(2));
  EXPECT_EQ(h.detector.missed_rounds(2), 0);
}

TEST(FailureDetector, DetectorDownSuspectsEveryone) {
  Harness h{2, 3};
  // Nobody ever replies: the coordinator accelerates to inactivation.
  for (int r = 0; r < 10 && !h.detector.down(); ++r) h.round({});
  EXPECT_TRUE(h.detector.down());
  EXPECT_TRUE(h.detector.suspects(1));
  EXPECT_TRUE(h.detector.suspects(2));
}

TEST(FailureDetector, UnknownMemberIsNotSuspected) {
  Harness h{2};
  EXPECT_FALSE(h.detector.suspects(99));
  EXPECT_EQ(h.detector.missed_rounds(99), 0);
}

TEST(FailureDetector, ThresholdOneIsAggressive) {
  Harness h{1, 1};
  h.round({1});
  h.round({});   // silent round...
  h.round({});   // ...closes: one miss suffices at threshold 1
  EXPECT_TRUE(h.detector.suspects(1));
}

TEST(FailureDetector, RejectsTwoPhaseVariant) {
  Config cfg = static_config(1, 16);
  cfg.variant = Variant::TwoPhase;
  EXPECT_DEATH(FailureDetector(cfg, 1), "precondition");
}

}  // namespace
}  // namespace ahb::hb
