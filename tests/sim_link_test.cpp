// The per-send fault decision (sim::decide_send) over the directed-link
// fault state (sim::LinkFaults), tested directly: every simulated
// channel — hb::ScaleCluster's transport and the plain-heartbeat
// baseline — takes each send's fate from it. The suite keeps the name
// `Network`: the channel model the fates describe.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/link.hpp"

namespace ahb::sim {
namespace {

constexpr std::uint64_t kPayloadBits = 64;

/// `count` sends on from -> to under one seed, with their fates and the
/// channel counters they left behind.
struct Sends {
  std::vector<SendFate> fates;
  NetworkStats stats;
  std::size_t count(SendFate::Outcome outcome) const {
    std::size_t n = 0;
    for (const SendFate& fate : fates) n += fate.outcome == outcome;
    return n;
  }
};

Sends send_many(LinkFaults& links, int count, std::uint64_t seed = 7,
                int from = 0, int to = 1, bool blocked = false,
                Time spec_max_delay = -1) {
  Rng rng{seed};
  Sends sends;
  for (int i = 0; i < count; ++i) {
    sends.fates.push_back(decide_send(rng, links, from, to, blocked,
                                      kPayloadBits, spec_max_delay,
                                      sends.stats));
  }
  return sends;
}

TEST(Network, DeliversWithinDelayBounds) {
  LinkFaults links{{.loss_probability = 0.0, .min_delay = 2, .max_delay = 5}};
  const Sends sends = send_many(links, 200);
  std::vector<int> seen(6, 0);
  for (const SendFate& fate : sends.fates) {
    ASSERT_EQ(fate.outcome, SendFate::Outcome::Deliver);
    ASSERT_GE(fate.delay, 2);
    ASSERT_LE(fate.delay, 5);
    ++seen[static_cast<std::size_t>(fate.delay)];
    EXPECT_FALSE(fate.duplicate);
    EXPECT_FALSE(fate.corrupt);
  }
  for (Time d = 2; d <= 5; ++d) EXPECT_GT(seen[static_cast<std::size_t>(d)], 0);
  EXPECT_EQ(sends.stats.sent, 200u);
  EXPECT_EQ(sends.stats.lost, 0u);
  EXPECT_EQ(sends.stats.out_of_spec_delay, 0u);
}

TEST(Network, LossRateRoughlyCalibrated) {
  LinkFaults links{{.loss_probability = 0.25, .min_delay = 0, .max_delay = 1}};
  constexpr int kTotal = 10000;
  const Sends sends = send_many(links, kTotal);
  const auto lost = sends.count(SendFate::Outcome::Lost);
  EXPECT_NEAR(static_cast<double>(lost) / kTotal, 0.25, 0.03);
  EXPECT_EQ(sends.stats.lost, lost);
  EXPECT_EQ(sends.stats.sent, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(lost + sends.count(SendFate::Outcome::Deliver),
            static_cast<std::size_t>(kTotal));
}

TEST(Network, DeterministicForSeed) {
  const auto run = [](std::uint64_t seed) {
    LinkFaults links{{.loss_probability = 0.5, .min_delay = 0, .max_delay = 3}};
    std::vector<std::pair<SendFate::Outcome, Time>> fates;
    for (const SendFate& fate : send_many(links, 100, seed).fates) {
      fates.emplace_back(fate.outcome, fate.delay);
    }
    return fates;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(Network, LinkOverrideApplies) {
  LinkFaults links{{.loss_probability = 0.0, .min_delay = 0, .max_delay = 0}};
  links.set(0, 1, {.loss_probability = 1.0, .min_delay = 0, .max_delay = 0});
  EXPECT_EQ(links.params(0, 1).loss_probability, 1.0);
  EXPECT_EQ(links.params(1, 0).loss_probability, 0.0);  // directed
  EXPECT_EQ(send_many(links, 20, 1, 0, 1).count(SendFate::Outcome::Lost), 20u);
  EXPECT_EQ(send_many(links, 20, 1, 0, 2).count(SendFate::Outcome::Deliver),
            20u);
}

// Table of blocked sends: a link taken down, or the transport's own
// `blocked` flag (set when an endpoint is isolated). Either way the
// send is counted as blocked and draws nothing from the RNG stream.
TEST(Network, LinkDownBlocksSilently) {
  struct Case {
    const char* name;
    bool link_down;
    bool blocked_flag;
  };
  for (const Case& c : {Case{"link down", true, false},
                        Case{"blocked flag", false, true},
                        Case{"both", true, true}}) {
    SCOPED_TRACE(c.name);
    LinkFaults links;
    if (c.link_down) links.set_up(0, 1, false);
    Rng rng{1};
    NetworkStats stats;
    const SendFate fate =
        decide_send(rng, links, 0, 1, c.blocked_flag, kPayloadBits, -1, stats);
    EXPECT_EQ(fate.outcome, SendFate::Outcome::Blocked);
    EXPECT_EQ(stats.sent, 1u);
    EXPECT_EQ(stats.blocked, 1u);
    EXPECT_EQ(stats.lost, 0u);
    Rng fresh{1};
    EXPECT_EQ(rng(), fresh());  // no draw consumed
  }
  LinkFaults links;
  links.set_up(0, 1, false);
  EXPECT_TRUE(links.down(0, 1));
  EXPECT_FALSE(links.down(1, 0));
  links.set_up(0, 1, true);
  EXPECT_EQ(send_many(links, 1).count(SendFate::Outcome::Deliver), 1u);
}

// An isolated node's transport passes `blocked` for every send from or
// to it; sends between other nodes still go through.
TEST(Network, IsolatedNodeNeitherSendsNorReceives) {
  LinkFaults links;
  const auto isolated = [](int node) { return node == 1; };
  Rng rng{1};
  NetworkStats stats;
  for (const auto& [from, to] : {std::pair{1, 0}, std::pair{0, 1},
                                std::pair{0, 2}}) {
    const SendFate fate = decide_send(rng, links, from, to,
                                      isolated(from) || isolated(to),
                                      kPayloadBits, -1, stats);
    EXPECT_EQ(fate.outcome, from == 0 && to == 2
                                ? SendFate::Outcome::Deliver
                                : SendFate::Outcome::Blocked);
  }
  EXPECT_EQ(stats.blocked, 2u);
  EXPECT_EQ(stats.sent, 3u);
}

// A duplicated fate is one send (one message id) delivered twice, the
// copy after its own delay sampled from the same range.
TEST(Network, DuplicationDeliversSameIdTwice) {
  LinkFaults links{{.loss_probability = 0.0,
                    .min_delay = 1,
                    .max_delay = 4,
                    .duplicate_probability = 1.0}};
  const Sends sends = send_many(links, 100, 7, 0, 1, false, 2);
  bool delays_differ = false;
  std::uint64_t above_spec = 0;
  for (const SendFate& fate : sends.fates) {
    ASSERT_EQ(fate.outcome, SendFate::Outcome::Deliver);
    ASSERT_TRUE(fate.duplicate);
    EXPECT_GE(fate.duplicate_delay, 1);
    EXPECT_LE(fate.duplicate_delay, 4);
    delays_differ |= fate.duplicate_delay != fate.delay;
    above_spec += (fate.delay > 2) + (fate.duplicate_delay > 2);
  }
  EXPECT_TRUE(delays_differ);  // the copy's delay is drawn anew
  EXPECT_EQ(sends.stats.sent, 100u);
  EXPECT_EQ(sends.stats.duplicated, 100u);
  // Both delays are classified against the spec bound.
  EXPECT_EQ(sends.stats.out_of_spec_delay, above_spec);
}

TEST(Network, BurstLossDropsEverythingWhileBad) {
  LinkFaults links{{.burst = {.p_enter = 1.0, .p_exit = 0.0, .loss = 1.0}}};
  const Sends sends = send_many(links, 5, 7, 1, 0);
  EXPECT_EQ(sends.count(SendFate::Outcome::Lost), 5u);
  EXPECT_EQ(sends.stats.lost, 5u);
  EXPECT_TRUE(links.burst_state(1, 0));
  // The chain is per link: the reverse direction stays good.
  EXPECT_FALSE(links.burst_state(0, 1));

  // Leaving the bad state (p_exit = 1) lets the next send through.
  links.set(1, 0, {.burst = {.p_enter = 1e-9, .p_exit = 1.0, .loss = 1.0}});
  EXPECT_EQ(send_many(links, 1, 7, 1, 0).count(SendFate::Outcome::Deliver),
            1u);
  EXPECT_FALSE(links.burst_state(1, 0));
}

TEST(Network, OutOfSpecDelaySamplesCounted) {
  struct Case {
    Time min_delay;
    Time max_delay;
    Time spec;
    std::uint64_t out_of_spec;  ///< of two sends
  };
  for (const Case& c : {Case{2, 2, 1, 2}, Case{1, 1, 1, 0}, Case{2, 2, -1, 0},
                        Case{0, 0, 0, 0}}) {
    SCOPED_TRACE(::testing::Message() << "delay " << c.min_delay << ".."
                                      << c.max_delay << " spec " << c.spec);
    LinkFaults links{{.min_delay = c.min_delay, .max_delay = c.max_delay}};
    const Sends sends = send_many(links, 2, 7, 0, 1, false, c.spec);
    EXPECT_EQ(sends.stats.out_of_spec_delay, c.out_of_spec);
    EXPECT_EQ(sends.count(SendFate::Outcome::Deliver), 2u);
  }
}

TEST(NetworkStats, SumAddsEveryCounter) {
  const NetworkStats one{1, 2, 3, 4, 5, 6, 7, 8, 9};
  NetworkStats total = one;
  total += one;
  const NetworkStats want{2, 4, 6, 8, 10, 12, 14, 16, 18};
  EXPECT_EQ(total.sent, want.sent);
  EXPECT_EQ(total.delivered, want.delivered);
  EXPECT_EQ(total.lost, want.lost);
  EXPECT_EQ(total.blocked, want.blocked);
  EXPECT_EQ(total.duplicated, want.duplicated);
  EXPECT_EQ(total.reordered, want.reordered);
  EXPECT_EQ(total.out_of_spec_delay, want.out_of_spec_delay);
  EXPECT_EQ(total.corrupted, want.corrupted);
  EXPECT_EQ(total.rejected, want.rejected);
}

}  // namespace
}  // namespace ahb::sim
