// Golden event streams of the heartbeat engine (hb::ScaleCluster).
//
// The digests below were frozen from the per-process reference engine
// the repository used to ship next to ScaleCluster (one heap-allocated
// Coordinator/Participant object per node on a binary-heap simulator
// and the generic sim::Network), at the commit that deleted it. Each
// digest folds a run's complete event stream — every protocol event
// (kind, time, node, message id, fan-out) and every channel event
// (kind, time, link, message id) — with the run's final protocol state
// and transport counters. Reproducing them proves the one remaining
// engine runs the same protocol bit for bit:
//
//   - the scenario families of the former engine-equivalence suite:
//     all six variants at the Table-1 timing points under crashes,
//     zero and random delay, random loss, payload corruption,
//     receive priority off, and dynamic leave/rejoin;
//   - one chaos RunSpec per FaultKind, scheduled through
//     chaos::schedule_actions (per-link overrides, bursts,
//     duplication, partitions, drift, clock jumps and wraps, storms),
//     and the same specs through chaos::run_chaos (trace fingerprint
//     and violation count with the full monitor stack attached);
//   - the guard-off clock wrap, the validation-off corruption run, a
//     forward clock jump and a guard-off backward jump;
//   - arms far beyond the timer wheel's span (a crash at 2^40, a
//     guard-off wrap whose crossing lies 2^40 ticks out).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chaos/fault_schedule.hpp"
#include "chaos/runner.hpp"
#include "hb/cluster_scale.hpp"
#include "proto/conformance.hpp"
#include "proto/rules.hpp"
#include "rv/event_sink.hpp"

namespace ahb {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

/// FNV-1a over the eight bytes of `value`, low byte first.
void fnv(std::uint64_t& hash, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (value >> shift) & 0xFF;
    hash *= 1099511628211ULL;
  }
}

std::uint64_t as_u64(std::int64_t v) { return static_cast<std::uint64_t>(v); }

/// Folds every protocol and channel event of a run, in emission order.
class DigestSink final : public rv::EventSink {
 public:
  std::uint32_t protocol_interest() const override {
    return rv::kAllProtocolEvents;
  }
  std::uint32_t channel_interest() const override {
    return rv::kAllChannelEvents;
  }
  void on_protocol_event(const hb::ProtocolEvent& e) override {
    fnv(hash, 0);
    fnv(hash, static_cast<std::uint64_t>(e.kind));
    fnv(hash, as_u64(e.at));
    fnv(hash, as_u64(e.node));
    fnv(hash, e.msg_id);
    fnv(hash, e.fanout);
    ++events;
  }
  void on_channel_event(const sim::ChannelEvent& e) override {
    fnv(hash, 1);
    fnv(hash, static_cast<std::uint64_t>(e.kind));
    fnv(hash, as_u64(e.at));
    fnv(hash, as_u64(e.from));
    fnv(hash, as_u64(e.to));
    fnv(hash, e.id);
    ++events;
  }
  std::uint64_t hash = kFnvOffset;
  std::uint64_t events = 0;
};

/// Folds every transport counter.
void net_hash(std::uint64_t& hash, const sim::NetworkStats& n) {
  for (const std::uint64_t v : {n.sent, n.delivered, n.lost, n.blocked,
                                n.duplicated, n.reordered,
                                n.out_of_spec_delay, n.corrupted,
                                n.rejected}) {
    fnv(hash, v);
  }
}

/// One injected process fault of a scenario.
struct Fault {
  enum class Kind { CrashCoordinator, CrashParticipant, Leave, Rejoin };
  Kind kind{};
  int node = 0;
  sim::Time when = 0;
};

struct Scenario {
  hb::ClusterConfig config;
  std::vector<Fault> faults;
  sim::Time horizon = 0;
};

constexpr std::pair<int, int> kTimingPoints[] = {
    {1, 10}, {4, 10}, {5, 10}, {9, 10}, {10, 10}};

constexpr hb::Variant kAllVariants[] = {
    hb::Variant::Binary,   hb::Variant::RevisedBinary, hb::Variant::TwoPhase,
    hb::Variant::Static,   hb::Variant::Expanding,     hb::Variant::Dynamic};

hb::ClusterConfig base_config(hb::Variant variant, int tmin, int tmax) {
  hb::ClusterConfig config;
  config.protocol.variant = variant;
  config.protocol.tmin = tmin;
  config.protocol.tmax = tmax;
  config.participants = proto::variant_is_multi(variant) ? 2 : 1;
  config.min_delay = 0;
  config.max_delay = 0;
  config.seed = 1;
  return config;
}

/// The scenario families of the former engine-equivalence suite, by
/// name.
std::vector<std::pair<std::string, std::vector<Scenario>>> families() {
  std::vector<std::pair<std::string, std::vector<Scenario>>> out;
  {
    std::vector<Scenario> f;
    for (const auto variant : kAllVariants) {
      for (const auto& [tmin, tmax] : kTimingPoints) {
        Scenario s;
        s.config = base_config(variant, tmin, tmax);
        s.faults = {{Fault::Kind::CrashParticipant, 1, 2 * tmax + 1}};
        s.horizon = 9 * tmax;
        f.push_back(s);
      }
    }
    out.emplace_back("participant_crash", f);
  }
  {
    std::vector<Scenario> f;
    for (const auto variant : kAllVariants) {
      for (const auto& [tmin, tmax] : kTimingPoints) {
        Scenario s;
        s.config = base_config(variant, tmin, tmax);
        s.faults = {{Fault::Kind::CrashCoordinator, 0, 2 * tmax + 1}};
        s.horizon = 8 * tmax;
        f.push_back(s);
      }
    }
    out.emplace_back("coordinator_crash", f);
  }
  {
    std::vector<Scenario> f;
    for (const auto variant : kAllVariants) {
      for (const auto& [tmin, tmax] : kTimingPoints) {
        Scenario s;
        s.config = base_config(variant, tmin, tmax);
        s.config.participants = proto::variant_is_multi(variant) ? 4 : 1;
        s.config.max_delay = -1;
        s.config.seed = 7;
        s.faults = {{Fault::Kind::CrashParticipant, 1, 3 * tmax + 1}};
        s.horizon = 12 * tmax;
        f.push_back(s);
      }
    }
    out.emplace_back("random_delay", f);
  }
  {
    std::vector<Scenario> f;
    for (const auto variant :
         {hb::Variant::Static, hb::Variant::Expanding, hb::Variant::Dynamic}) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Scenario s;
        s.config = base_config(variant, 4, 10);
        s.config.participants = 3;
        s.config.loss_probability = 0.2;
        s.config.max_delay = -1;
        s.config.seed = seed;
        s.horizon = 40 * 10;
        f.push_back(s);
      }
    }
    out.emplace_back("random_loss", f);
  }
  {
    std::vector<Scenario> f;
    for (const auto variant :
         {hb::Variant::Binary, hb::Variant::Static, hb::Variant::Dynamic}) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Scenario s;
        s.config = base_config(variant, 4, 10);
        s.config.participants = proto::variant_is_multi(variant) ? 3 : 1;
        s.config.corrupt_probability = 0.05;
        s.config.max_delay = -1;
        s.config.seed = seed;
        s.horizon = 40 * 10;
        f.push_back(s);
      }
    }
    out.emplace_back("payload_corruption", f);
  }
  {
    std::vector<Scenario> f;
    for (const auto variant : {hb::Variant::Static, hb::Variant::TwoPhase}) {
      Scenario s;
      s.config = base_config(variant, 5, 10);
      s.config.participants = 3;
      s.config.receive_priority = false;
      s.config.max_delay = -1;
      s.config.seed = 11;
      s.faults = {{Fault::Kind::CrashParticipant, 2, 3 * 10 + 1}};
      s.horizon = 10 * 10;
      f.push_back(s);
    }
    out.emplace_back("receive_priority_off", f);
  }
  {
    std::vector<Scenario> f;
    for (const auto& [tmin, tmax] : kTimingPoints) {
      Scenario s;
      s.config = base_config(hb::Variant::Dynamic, tmin, tmax);
      s.config.participants = 3;
      s.faults = {{Fault::Kind::Leave, 1, 2 * tmax + 1},
                  {Fault::Kind::Rejoin, 1, 4 * tmax + 1},
                  {Fault::Kind::CrashCoordinator, 0, 7 * tmax + 1}};
      s.horizon = 12 * tmax;
      f.push_back(s);
    }
    out.emplace_back("dynamic_leave_rejoin", f);
  }
  return out;
}

/// One chaos RunSpec per FaultKind, plus the guard-off and
/// validation-off controls and the far-future arms.
std::vector<std::pair<std::string, chaos::RunSpec>> chaos_specs() {
  using chaos::FaultAction;
  using chaos::FaultKind;
  const auto spec = [](hb::Variant variant, int participants,
                       std::uint64_t seed, std::vector<FaultAction> actions) {
    chaos::RunSpec s;
    s.variant = variant;
    s.tmin = 2;
    s.tmax = 16;
    s.participants = participants;
    s.seed = seed;
    s.horizon = 800;
    s.schedule.actions = std::move(actions);
    return s;
  };
  const auto act = [](FaultKind kind, sim::Time at, int a, int b,
                      double p = 0, double q = 0, double r = 0,
                      sim::Time d1 = 0, sim::Time d2 = 0) {
    return FaultAction{kind, at, a, b, p, q, r, d1, d2};
  };
  using V = hb::Variant;
  using K = FaultKind;
  std::vector<std::pair<std::string, chaos::RunSpec>> out;
  out.emplace_back("set-loss",
                   spec(V::Static, 3, 2,
                        {act(K::SetLoss, 20, 0, 2, 0.1),
                         act(K::SetLoss, 25, 1, 0, 0.08)}));
  out.emplace_back("set-burst",
                   spec(V::Static, 3, 3,
                        {act(K::SetBurst, 30, 0, 1, 0.05, 0.5, 0.9),
                         act(K::SetBurst, 30, 3, 0, 0.05, 0.6, 1.0)}));
  out.emplace_back("set-delay",
                   spec(V::Static, 2, 4,
                        {act(K::SetDelay, 40, 0, 1, 0, 0, 0, 1, 6),
                         act(K::SetDelay, 45, 2, 0, 0, 0, 0, 0, 3)}));
  out.emplace_back("set-duplication",
                   spec(V::Dynamic, 3, 5,
                        {act(K::SetDuplication, 10, 0, 2, 0.5),
                         act(K::SetDuplication, 10, 2, 0, 0.5),
                         act(K::SetDelay, 10, 0, 2, 0, 0, 0, 0, 2)}));
  out.emplace_back("link-down",
                   spec(V::Static, 3, 6, {act(K::LinkDown, 100, 0, 2)}));
  out.emplace_back("link-up", spec(V::Static, 3, 7,
                                   {act(K::LinkDown, 50, 1, 0),
                                    act(K::LinkUp, 58, 1, 0)}));
  out.emplace_back("partition",
                   spec(V::Expanding, 3, 8, {act(K::Partition, 80, 2, 3)}));
  out.emplace_back("heal", spec(V::Dynamic, 3, 9,
                                {act(K::Partition, 50, 1, 2),
                                 act(K::Heal, 58, 1, 2)}));
  out.emplace_back("crash-participant",
                   spec(V::Static, 3, 10, {act(K::CrashParticipant, 70, 2, 0)}));
  out.emplace_back("crash-coordinator",
                   spec(V::RevisedBinary, 1, 11,
                        {act(K::CrashCoordinator, 90, 0, 0)}));
  out.emplace_back("leave",
                   spec(V::Dynamic, 3, 12, {act(K::Leave, 60, 1, 0)}));
  out.emplace_back("rejoin", spec(V::Dynamic, 3, 13,
                                  {act(K::Leave, 40, 2, 0),
                                   act(K::Rejoin, 120, 2, 0)}));
  out.emplace_back("set-drift",
                   spec(V::Static, 3, 14,
                        {act(K::SetDrift, 30, 2, 0, 0, 0, 0, 1, 2),
                         act(K::SetDrift, 35, 1, 0, 0, 0, 0, 3, 2),
                         act(K::SetDrift, 200, 0, 0, 0, 0, 0, 7, 8),
                         act(K::SetDrift, 260, 1, 0, 0, 0, 0, 1, 1)}));
  out.emplace_back("corrupt-payload",
                   spec(V::Static, 3, 15,
                        {act(K::CorruptPayload, 0, 0, 1, 0.1),
                         act(K::CorruptPayload, 0, 1, 0, 0.1)}));
  out.emplace_back("set-clock-offset",
                   spec(V::Static, 3, 16,
                        {act(K::SetClockOffset, 90, 1, 0, 0, 0, 0, 7),
                         act(K::SetClockOffset, 130, 2, 0, 0, 0, 0, -5)}));
  out.emplace_back("wrap-clock",
                   spec(V::Dynamic, 3, 17,
                        {act(K::WrapClock, 40, 1, 0, 0, 0, 0, 25),
                         act(K::WrapClock, 45, 0, 0, 0, 0, 0, 3)}));
  out.emplace_back("asymmetric-storm",
                   spec(V::Static, 3, 18,
                        {act(K::AsymmetricStorm, 50, 1, 3, 0.3, 0.6, 1.0, 60,
                             0),
                         act(K::AsymmetricStorm, 200, 2, 3, 0.4, 0.4, 0.8, 40,
                             1)}));
  out.emplace_back("churn-storm",
                   spec(V::Dynamic, 3, 19,
                        {act(K::ChurnStorm, 50, 1, 3, 0, 0, 0, 15, 60)}));
  {
    auto s = spec(V::Static, 3, 20,
                  {act(K::WrapClock, 40, 0, 0, 0, 0, 0, 30),
                   act(K::WrapClock, 20, 2, 0, 0, 0, 0, 100)});
    s.clock_guard = false;
    out.emplace_back("guard-off-wrap", s);
  }
  {
    auto s = spec(V::Dynamic, 3, 21,
                  {act(K::CorruptPayload, 0, 1, 0, 0.15),
                   act(K::CorruptPayload, 0, 0, 2, 0.15)});
    s.wire_validation = false;
    out.emplace_back("validation-off-corruption", s);
  }
  out.emplace_back("forward-clock-jump",
                   spec(V::Static, 3, 22,
                        {act(K::SetClockOffset, 55, 0, 0, 0, 0, 0, 25),
                         act(K::SetClockOffset, 70, 3, 0, 0, 0, 0, 12)}));
  {
    auto s = spec(V::Static, 3, 23,
                  {act(K::SetClockOffset, 60, 1, 0, 0, 0, 0, -30),
                   act(K::SetClockOffset, 75, 0, 0, 0, 0, 0, -9)});
    s.clock_guard = false;
    out.emplace_back("guard-off-backward-jump", s);
  }
  out.emplace_back("far-crash",
                   spec(V::Static, 2, 24,
                        {act(K::CrashParticipant, sim::Time{1} << 40, 1, 0)}));
  {
    auto s = spec(V::Static, 2, 25,
                  {act(K::WrapClock, 50, 0, 0, 0, 0, 0, sim::Time{1} << 40)});
    s.clock_guard = false;
    out.emplace_back("far-guard-off-wrap", s);
  }
  return out;
}

void inject(hb::ScaleCluster& engine, const Fault& fault) {
  switch (fault.kind) {
    case Fault::Kind::CrashCoordinator:
      engine.crash_coordinator_at(fault.when);
      break;
    case Fault::Kind::CrashParticipant:
      engine.crash_participant_at(fault.node, fault.when);
      break;
    case Fault::Kind::Leave:
      engine.leave_at(fault.node, fault.when);
      break;
    case Fault::Kind::Rejoin:
      engine.rejoin_at(fault.node, fault.when);
      break;
  }
}

/// Final protocol state and transport counters of a run.
std::uint64_t state_hash(const hb::ScaleCluster& c) {
  std::uint64_t h = kFnvOffset;
  fnv(h, static_cast<std::uint64_t>(c.coordinator_status()));
  fnv(h, as_u64(c.coordinator_wait()));
  fnv(h, as_u64(c.coordinator_inactivated_at()));
  for (int i = 1; i <= c.participant_count(); ++i) {
    fnv(h, static_cast<std::uint64_t>(c.participant_status(i)));
    fnv(h, c.participant_joined(i));
    fnv(h, as_u64(c.participant_inactivated_at(i)));
  }
  net_hash(h, c.network_stats());
  fnv(h, c.all_inactive());
  return h;
}

/// FNV-1a fold of a run's event stream (protocol and channel events,
/// in emission order) and its final state, with the event count for
/// diagnostics.
struct Digest {
  std::uint64_t hash = kFnvOffset;
  std::uint64_t events = 0;
};

Digest run_scenario(const Scenario& scenario) {
  hb::ScaleCluster engine{scenario.config};
  DigestSink sink;
  engine.add_sink(&sink);
  for (const auto& fault : scenario.faults) inject(engine, fault);
  engine.start();
  engine.run_until(scenario.horizon);
  Digest d{sink.hash, sink.events};
  fnv(d.hash, state_hash(engine));
  return d;
}

Digest run_family(const std::vector<Scenario>& scenarios) {
  Digest d;
  for (const auto& s : scenarios) {
    const Digest one = run_scenario(s);
    fnv(d.hash, one.hash);
    d.events += one.events;
  }
  return d;
}

Digest run_spec(const chaos::RunSpec& spec) {
  hb::ScaleCluster engine{chaos::cluster_config_for(spec)};
  DigestSink sink;
  engine.add_sink(&sink);
  chaos::schedule_actions(engine, spec);
  engine.start();
  engine.run_until(spec.horizon);
  Digest d{sink.hash, sink.events};
  fnv(d.hash, state_hash(engine));
  return d;
}


struct Frozen {
  const char* name;
  std::uint64_t digest;
  std::uint64_t events;
};

constexpr Frozen kFamilies[] = {
    {"participant_crash", 0xd2c08e02347b1a86ULL, 1380},
    {"coordinator_crash", 0xf8109500437a60daULL, 1013},
    {"random_delay", 0x51551b6a76feaf9fULL, 2635},
    {"random_loss", 0x8711086366ac4befULL, 2667},
    {"payload_corruption", 0x2f6ec6505329634fULL, 8418},
    {"receive_priority_off", 0x3a76827130a76153ULL, 164},
    {"dynamic_leave_rejoin", 0x747ae6b97d892d06ULL, 869},
};

constexpr Frozen kChaosRuns[] = {
    {"set-loss", 0x143e47713bdcc645ULL, 224},
    {"set-burst", 0xe0d94acc6554fc70ULL, 724},
    {"set-delay", 0xbd10d7abf93bb09dULL, 738},
    {"set-duplication", 0x8d5d2643ddb43cfeULL, 1445},
    {"link-down", 0x20abdff15160a91cULL, 204},
    {"link-up", 0xa00fa71df9b4dde2ULL, 1096},
    {"partition", 0xc81197c34d297d14ULL, 236},
    {"heal", 0x9371998402dc8fddULL, 1182},
    {"crash-participant", 0x243aaa7f826a679dULL, 160},
    {"crash-coordinator", 0x67932507b7b30ad3ULL, 50},
    {"leave", 0x6acbf1bc9236fce0ULL, 868},
    {"rejoin", 0x2bb32cdf1ce24842ULL, 1173},
    {"set-drift", 0x9682b3c2bdcf9461ULL, 990},
    {"corrupt-payload", 0x341ed3e7d457deb0ULL, 74},
    {"set-clock-offset", 0x2728b1aea2f52177ULL, 248},
    {"wrap-clock", 0x99aed87eb6694b87ULL, 1184},
    {"asymmetric-storm", 0x5b6fae783cc3f4f4ULL, 329},
    {"churn-storm", 0x01a001228c56acb3ULL, 1184},
    {"guard-off-wrap", 0x4ba3180850e229b9ULL, 91},
    {"validation-off-corruption", 0xb7510be64c4d2d41ULL, 302},
    {"forward-clock-jump", 0x7dd8677e517c1b3cULL, 1100},
    {"guard-off-backward-jump", 0xfe28eb315ab3556bULL, 1078},
    {"far-crash", 0x54976946d66ced9aULL, 748},
    {"far-guard-off-wrap", 0x3c32e554f8d7ec2eULL, 742},
};

/// chaos::run_chaos over the same specs: the FNV-1a fingerprint of the
/// serialized spec plus its recorded trace (the campaign's per-run
/// fingerprint), and the monitor stack's violation count.
struct FrozenRun {
  const char* name;
  std::uint64_t fingerprint;
  std::size_t violations;
};

constexpr FrozenRun kRunChaos[] = {
    {"set-loss", 0xe8200b7ff69ce223ULL, 0},
    {"set-burst", 0x6b9e795a53653872ULL, 0},
    {"set-delay", 0x845090ba6c5d3415ULL, 0},
    {"set-duplication", 0x993c5079dcf981dbULL, 0},
    {"link-down", 0x704ce9345905a5d2ULL, 0},
    {"link-up", 0x159eab94d2936acdULL, 0},
    {"partition", 0x6f51a4f0b44f7f3dULL, 0},
    {"heal", 0x0822df27dfd18adeULL, 0},
    {"crash-participant", 0x8c7a80ada1381528ULL, 0},
    {"crash-coordinator", 0xaeebb7d193328e3bULL, 0},
    {"leave", 0x65400798c00fb265ULL, 0},
    {"rejoin", 0x6184a85aa56b5cf6ULL, 0},
    {"set-drift", 0x548e74ce04391bc1ULL, 0},
    {"corrupt-payload", 0xb834a04989d5e619ULL, 0},
    {"set-clock-offset", 0xd19f6e21d38fd025ULL, 1},
    {"wrap-clock", 0x6e02815c66e0394bULL, 0},
    {"asymmetric-storm", 0x18cc98b8eac50f56ULL, 0},
    {"churn-storm", 0x4d4c8b3e9b740183ULL, 0},
    {"guard-off-wrap", 0x7dd261efc5e37026ULL, 5},
    {"validation-off-corruption", 0xc4783b7bdda32871ULL, 3},
    {"forward-clock-jump", 0xc812be3066a7b062ULL, 0},
    {"guard-off-backward-jump", 0x2279f14407b47acdULL, 0},
    {"far-crash", 0x7ef2b57e6286f078ULL, 0},
    {"far-guard-off-wrap", 0xd8bb8d7d3d314e81ULL, 0},
};

std::string hex(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, value);
  return buf;
}

const Frozen& frozen(const std::string& name) {
  for (const Frozen& f : kFamilies) {
    if (name == f.name) return f;
  }
  for (const Frozen& f : kChaosRuns) {
    if (name == f.name) return f;
  }
  ADD_FAILURE() << "no frozen digest named " << name;
  return kFamilies[0];
}

void expect_frozen(const std::string& name, const Digest& got) {
  const Frozen& want = frozen(name);
  EXPECT_EQ(got.events, want.events) << name;
  EXPECT_EQ(hex(got.hash), hex(want.digest)) << name;
}

void expect_family(const std::string& name) {
  for (const auto& [family, scenarios] : families()) {
    if (family == name) {
      expect_frozen(name, run_family(scenarios));
      return;
    }
  }
  ADD_FAILURE() << "no scenario family named " << name;
}

/// Runs `spec` through chaos::run_chaos and checks it against kRunChaos.
void expect_run_chaos(const std::string& name, const chaos::RunSpec& spec) {
  const chaos::RunResult result = chaos::run_chaos(spec, nullptr, true);
  std::uint64_t fingerprint = kFnvOffset;
  for (const unsigned char c : chaos::serialize_run(spec) + result.trace) {
    fingerprint ^= c;
    fingerprint *= 1099511628211ULL;
  }
  for (const FrozenRun& want : kRunChaos) {
    if (name != want.name) continue;
    EXPECT_EQ(hex(fingerprint), hex(want.fingerprint)) << name;
    EXPECT_EQ(result.violations.size(), want.violations) << name;
    return;
  }
  ADD_FAILURE() << "no frozen run_chaos fingerprint named " << name;
}

chaos::RunSpec chaos_spec(const std::string& name) {
  for (const auto& [spec_name, spec] : chaos_specs()) {
    if (spec_name == name) return spec;
  }
  ADD_FAILURE() << "no chaos spec named " << name;
  return {};
}

TEST(ScaleEquivalence, ParticipantCrashCascadeMatchesForEveryVariant) {
  expect_family("participant_crash");
}

TEST(ScaleEquivalence, CoordinatorCrashStarvationMatchesForEveryVariant) {
  expect_family("coordinator_crash");
}

TEST(ScaleEquivalence, RandomDelayMatchesForEveryVariant) {
  // In-spec random delays: every message id rides its own delay draw,
  // so this pins the RNG-consumption order and the same-instant
  // (priority, schedule-order) tiebreak.
  expect_family("random_delay");
}

TEST(ScaleEquivalence, RandomLossMatchesAcrossSeeds) {
  expect_family("random_loss");
}

TEST(ScaleEquivalence, PayloadCorruptionMatchesAcrossSeeds) {
  // Armed corruption draws an extra Bernoulli (and, on a hit, a bit
  // index) per send, and every rejected image destroys a message
  // mid-round.
  expect_family("payload_corruption");
}

TEST(ScaleEquivalence, ReceivePriorityOffMatches) {
  // With receive_priority disabled, timers win same-instant races.
  expect_family("receive_priority_off");
}

TEST(ScaleEquivalence, DynamicLeaveAndRejoinMatches) {
  expect_family("dynamic_leave_rejoin");
}

TEST(ScaleGolden, EveryFaultKindMatchesItsFrozenStream) {
  for (int k = 0; k <= static_cast<int>(chaos::FaultKind::ChurnStorm); ++k) {
    const std::string name = chaos::to_string(static_cast<chaos::FaultKind>(k));
    SCOPED_TRACE(name);
    const chaos::RunSpec spec = chaos_spec(name);
    bool has_kind = false;
    for (const auto& action : spec.schedule.actions) {
      has_kind |= static_cast<int>(action.kind) == k;
    }
    EXPECT_TRUE(has_kind);
    expect_frozen(name, run_spec(spec));
    expect_run_chaos(name, spec);
  }
}

TEST(ScaleGolden, GuardAndValidationControlsMatchTheirFrozenStreams) {
  for (const char* name : {"guard-off-wrap", "validation-off-corruption",
                           "forward-clock-jump", "guard-off-backward-jump"}) {
    SCOPED_TRACE(name);
    expect_frozen(name, run_spec(chaos_spec(name)));
    expect_run_chaos(name, chaos_spec(name));
  }
}

// Far-future arms: beyond the timer wheel's 2^36-tick span, they wait
// outside the wheel instead of aborting the run.

Digest run_direct(const std::string& name,
                  void (*inject_fault)(hb::ScaleCluster&)) {
  const chaos::RunSpec spec = chaos_spec(name);
  hb::ScaleCluster engine{chaos::cluster_config_for(spec)};
  DigestSink sink;
  engine.add_sink(&sink);
  inject_fault(engine);
  engine.start();
  engine.run_until(spec.horizon);
  Digest d{sink.hash, sink.events};
  fnv(d.hash, state_hash(engine));
  return d;
}

TEST(ScaleGolden, CrashFarBeyondTheWheelSpanDoesNotAbort) {
  expect_frozen("far-crash", run_direct("far-crash", [](hb::ScaleCluster& c) {
    c.crash_participant_at(1, sim::Time{1} << 40);
  }));
}

TEST(ScaleGolden, GuardOffWrapFarBeyondTheWheelSpanDoesNotAbort) {
  expect_frozen("far-guard-off-wrap",
                run_direct("far-guard-off-wrap", [](hb::ScaleCluster& c) {
                  c.wrap_clock_at(0, 50, std::uint64_t{1} << 40);
                }));
}

TEST(ScaleGolden, ValidationOffFollowsTheDecodedSenderAndDropsStrangers) {
  // Validation off and every payload corrupted: membership follows the
  // decoded sender, and a flip that decodes to a sender without a
  // member slot is dropped instead of indexing the member table (the
  // sanitizer presets turn an out-of-range index into a failure).
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    hb::ClusterConfig config;
    config.protocol.variant = hb::Variant::Dynamic;
    config.protocol.tmin = 4;
    config.protocol.tmax = 10;
    config.participants = 3;
    config.corrupt_probability = 1.0;
    config.wire_validation = false;
    config.seed = seed;
    hb::ScaleCluster cluster{config};
    DigestSink sink;
    cluster.add_sink(&sink);
    cluster.start();
    cluster.run_until(2000);
    const auto& net = cluster.network_stats();
    EXPECT_GT(net.sent, 0u);
    EXPECT_EQ(net.corrupted, net.sent);
    EXPECT_EQ(net.rejected, 0u);
    EXPECT_LE(cluster.member_count(), 3);
  }
}

TEST(ScaleEquivalence, ScaleTraceReplaysThroughConformance) {
  // A green replay of an engine trace certifies it against the
  // timed-automata model.
  for (const auto variant : kAllVariants) {
    for (const auto& [tmin, tmax] : kTimingPoints) {
      SCOPED_TRACE(testing::Message() << to_string(variant) << " tmin="
                                      << tmin << " tmax=" << tmax);
      hb::ScaleCluster cluster{base_config(variant, tmin, tmax)};
      proto::TraceRecorder recorder{cluster};
      cluster.crash_participant_at(1, 2 * tmax + 1);
      cluster.start();
      cluster.run_until(9 * tmax);
      ASSERT_FALSE(recorder.events().empty());
      const auto r = proto::replay_cluster_trace(cluster.config(),
                                                 recorder.events());
      EXPECT_TRUE(r.ok) << "matched " << r.matched << "/" << r.events << ": "
                        << r.diagnostic;
    }
  }
}

TEST(ScaleEquivalence, MidSizedRunKeepsAggregateBooks) {
  // Conservation of messages and a full member table over a long
  // healthy run at a size no per-event golden stream covers.
  hb::ClusterConfig config;
  config.protocol.variant = hb::Variant::Static;
  config.protocol.tmin = 4;
  config.protocol.tmax = 10;
  config.participants = 512;
  config.max_delay = -1;
  config.seed = 3;
  hb::ScaleCluster cluster{config};
  cluster.start();
  cluster.run_until(200 * 10);
  const auto& n = cluster.network_stats();
  // At the horizon only the last round's messages may still be in
  // flight; everything else must be accounted for.
  EXPECT_LE(n.delivered + n.lost, n.sent);
  EXPECT_LE(n.sent - n.delivered - n.lost,
            static_cast<std::uint64_t>(2 * config.participants));
  EXPECT_GT(n.delivered, 0u);
  EXPECT_EQ(n.lost, 0u);
  EXPECT_EQ(cluster.coordinator_status(), hb::Status::Active);
  EXPECT_EQ(cluster.member_count(), 512);
  EXPECT_GT(cluster.stats().rounds, 100u);
  EXPECT_EQ(cluster.stats().beats + cluster.stats().replies, n.sent);
}

TEST(ScaleEquivalence, MidSizedLossyRunInactivatesLikeTheProtocolSays) {
  // With 512 members at 1% i.i.d. loss some member misses consecutive
  // rounds almost immediately, so the accelerated ladder must drive
  // the coordinator to non-voluntary inactivation — at scale, loss
  // detection IS the protocol's steady state, not an error.
  hb::ClusterConfig config;
  config.protocol.variant = hb::Variant::Static;
  config.protocol.tmin = 4;
  config.protocol.tmax = 10;
  config.participants = 512;
  config.loss_probability = 0.01;
  config.max_delay = -1;
  config.seed = 3;
  hb::ScaleCluster cluster{config};
  cluster.start();
  cluster.run_until(200 * 10);
  EXPECT_EQ(cluster.coordinator_status(), hb::Status::InactiveNonVoluntarily);
  EXPECT_GT(cluster.network_stats().lost, 0u);
  EXPECT_TRUE(cluster.all_inactive());
}

}  // namespace
}  // namespace ahb
