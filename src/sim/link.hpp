// Directed-link fault models and the simulation clock type, shared by
// every simulated channel: hb::ScaleCluster's flat wire-image transport
// and the plain-heartbeat baseline's loop in
// bench/bench_overhead_reliability.cpp.
//
// A link a -> b is healthy by default: i.i.d. loss, a uniform delay
// range and optional payload corruption, all from the transport's
// default LinkParams. The chaos layer degrades links individually:
// per-link parameter overrides (loss, Gilbert–Elliott burst loss,
// delay range, duplication, corruption) and link up/down. LinkFaults
// holds that state sparsely — an empty override table and an empty
// down set cost one branch per send, so a 100k-node healthy run pays
// nothing for models it does not use.
//
// decide_send() is the one per-send fault decision. It fixes the order
// in which a send consumes the seeded RNG stream:
//
//   blocked -> burst step -> loss -> corruption (chance, bit index)
//           -> delay -> duplication (chance, delay)
//
// and every feature draws only when enabled (burst while p_enter > 0,
// corruption and duplication while their probabilities are > 0), so a
// default-configured run draws exactly one loss Bernoulli (a no-draw at
// probability 0 or 1) and one delay per send. Every simulated channel
// calls it, so a seed fixes each send's fate the same way everywhere.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace ahb::sim {

/// Simulation time: integral, in the units of the protocol constants
/// tmin and tmax.
using Time = std::int64_t;

struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;      ///< dropped by random loss (incl. burst loss)
  std::uint64_t blocked = 0;   ///< dropped because the link was down
  std::uint64_t duplicated = 0;         ///< extra copies created
  std::uint64_t reordered = 0;          ///< deliveries that overtook a later id
  std::uint64_t out_of_spec_delay = 0;  ///< sampled delays above the spec bound
  std::uint64_t corrupted = 0;  ///< payloads bit-flipped in flight
  std::uint64_t rejected = 0;   ///< deliveries the receiver refused to parse

  NetworkStats& operator+=(const NetworkStats& other) {
    sent += other.sent;
    delivered += other.delivered;
    lost += other.lost;
    blocked += other.blocked;
    duplicated += other.duplicated;
    reordered += other.reordered;
    out_of_spec_delay += other.out_of_spec_delay;
    corrupted += other.corrupted;
    rejected += other.rejected;
    return *this;
  }
};

/// Gilbert–Elliott two-state loss model of a directed link: each send
/// first advances the good/bad Markov state, then applies the bad-state
/// loss probability while in a burst (the i.i.d. `loss_probability`
/// still applies in the good state). Disabled while p_enter == 0.
struct BurstParams {
  double p_enter = 0.0;        ///< good -> bad transition probability per send
  double p_exit = 1.0;         ///< bad -> good transition probability per send
  double loss = 1.0;           ///< loss probability while in the bad state
};

/// One observable channel-level event, stamped with the message id its
/// send was assigned. Corrupted fires at send time when the link flips
/// a payload bit (the message still travels); Rejected fires at
/// delivery time when the receiver's wire-image validation refuses the
/// payload.
struct ChannelEvent {
  enum class Kind { Sent, Delivered, Lost, Blocked, Duplicated, Corrupted,
                    Rejected };
  Kind kind{};
  int from = 0;
  int to = 0;
  std::uint64_t id = 0;
  Time at = 0;
};

/// Flips bit `bit` of the object representation of `value`. Addressed
/// byte-first so every transport corrupts identically regardless of
/// the payload's integer layout.
template <typename T>
void corrupt_bit(T& value, std::uint64_t bit) {
  static_assert(std::is_trivially_copyable_v<T>);
  auto* bytes = reinterpret_cast<unsigned char*>(&value);
  bytes[bit >> 3] ^= static_cast<unsigned char>(1u << (bit & 7));
}

/// Parameters of a directed link (payload-independent).
struct LinkParams {
  double loss_probability = 0.0;
  Time min_delay = 0;
  Time max_delay = 1;  ///< inclusive; one-way delay bound
  BurstParams burst;
  double duplicate_probability = 0.0;
  double corrupt_probability = 0.0;  ///< per-send payload bit-flip chance
};

/// A change to one field of a directed link, applied when it fires
/// (the fields it does not name keep whatever they hold by then).
/// Values are taken as given; the chaos layer clamps them.
struct LinkChange {
  enum class Field : std::uint8_t {
    Loss,         ///< loss_probability := p
    Burst,        ///< burst := {p, q, r}
    Delay,        ///< delay range := [lo, hi]
    Duplication,  ///< duplicate_probability := p
    Corruption,   ///< corrupt_probability := p
    Up,           ///< link up (messages flow again)
    Down,         ///< link down (messages silently blocked)
  };
  Field field{};
  double p = 0.0;
  double q = 0.0;
  double r = 0.0;
  Time lo = 0;
  Time hi = 0;

  /// Patches the parameter this change names (Up/Down are not
  /// parameters; LinkFaults::apply handles them).
  void patch(LinkParams& params) const {
    switch (field) {
      case Field::Loss: params.loss_probability = p; break;
      case Field::Burst: params.burst = BurstParams{p, q, r}; break;
      case Field::Delay:
        params.min_delay = lo;
        params.max_delay = hi;
        break;
      case Field::Duplication: params.duplicate_probability = p; break;
      case Field::Corruption: params.corrupt_probability = p; break;
      case Field::Up:
      case Field::Down: break;
    }
  }
};

/// Directed link as one sortable key (the cast keeps negative ids
/// distinct too).
inline std::uint64_t link_key(int from, int to) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
         static_cast<std::uint32_t>(to);
}

/// Lower bound of `key` in a table of (link_key, value) pairs sorted
/// by key.
template <typename Table>
auto find_link(Table& table, std::uint64_t key) {
  return std::lower_bound(
      table.begin(), table.end(), key,
      [](const auto& entry, std::uint64_t k) { return entry.first < k; });
}

/// Sparse fault state of every directed link: default parameters, the
/// per-link overrides, the links taken down, and the Gilbert–Elliott
/// chain state of links with bursts armed.
class LinkFaults {
 public:
  explicit LinkFaults(LinkParams defaults = {}) : defaults_(defaults) {}

  /// Default parameters of links without an override; mutable at
  /// runtime (affects messages sent from now on, never in-flight ones).
  LinkParams& defaults() { return defaults_; }

  /// Parameters a send on from -> to uses right now.
  const LinkParams& params(int from, int to) const {
    if (overrides_.empty()) return defaults_;  // hot path: no overrides
    const std::uint64_t key = link_key(from, to);
    const auto it = find_link(overrides_, key);
    return it != overrides_.end() && it->first == key ? it->second
                                                       : defaults_;
  }

  /// Overrides every parameter of the directed link from -> to.
  void set(int from, int to, const LinkParams& params) {
    const std::uint64_t key = link_key(from, to);
    const auto it = find_link(overrides_, key);
    if (it != overrides_.end() && it->first == key) {
      it->second = params;
    } else {
      overrides_.insert(it, {key, params});
    }
  }

  /// Takes the directed link down (messages silently dropped) or up.
  void set_up(int from, int to, bool up) {
    const std::uint64_t key = link_key(from, to);
    const auto it = std::lower_bound(down_.begin(), down_.end(), key);
    if (up) {
      if (it != down_.end() && *it == key) down_.erase(it);
    } else if (it == down_.end() || *it != key) {
      down_.insert(it, key);
    }
  }

  bool down(int from, int to) const {
    if (down_.empty()) return false;  // hot path: no injected faults
    return std::binary_search(down_.begin(), down_.end(), link_key(from, to));
  }

  /// Applies a timed change: patches one field of the link's current
  /// parameters, or takes it up/down.
  void apply(int from, int to, const LinkChange& change) {
    if (change.field == LinkChange::Field::Up ||
        change.field == LinkChange::Field::Down) {
      set_up(from, to, change.field == LinkChange::Field::Up);
      return;
    }
    LinkParams patched = params(from, to);
    change.patch(patched);
    set(from, to, patched);
  }

  /// The Gilbert–Elliott state of a link (true = in a burst). Chains
  /// exist only on links whose burst was armed.
  bool& burst_state(int from, int to) {
    const std::uint64_t key = link_key(from, to);
    const auto it = find_link(burst_state_, key);
    if (it != burst_state_.end() && it->first == key) return it->second;
    return burst_state_.insert(it, {key, false})->second;
  }

 private:
  LinkParams defaults_;
  std::vector<std::pair<std::uint64_t, LinkParams>> overrides_;  ///< sorted
  std::vector<std::uint64_t> down_;                               ///< sorted
  std::vector<std::pair<std::uint64_t, bool>> burst_state_;       ///< sorted
};

/// What the channel does to one send.
struct SendFate {
  enum class Outcome : std::uint8_t { Deliver, Blocked, Lost };
  Outcome outcome = Outcome::Deliver;
  bool corrupt = false;
  bool duplicate = false;
  std::uint64_t corrupt_bit = 0;  ///< bit of the payload to flip
  Time delay = 0;
  Time duplicate_delay = 0;
};

/// The per-send fault decision of link from -> to (see the header
/// comment for the draw order). `blocked` adds transport-level blocking
/// (an isolated node) to the link's own down state; `payload_bits`
/// bounds the corrupted bit; sampled delays above `spec_max_delay`
/// (negative: no bound) count as out of spec. Updates every send-side
/// counter of `stats`.
inline SendFate decide_send(Rng& rng, LinkFaults& links, int from, int to,
                            bool blocked, std::uint64_t payload_bits,
                            Time spec_max_delay, NetworkStats& stats) {
  SendFate fate;
  ++stats.sent;
  if (blocked || links.down(from, to)) {
    ++stats.blocked;
    fate.outcome = SendFate::Outcome::Blocked;
    return fate;
  }
  const LinkParams& params = links.params(from, to);
  double loss_probability = params.loss_probability;
  if (params.burst.p_enter > 0) {
    bool& bursting = links.burst_state(from, to);
    bursting = bursting ? !rng.chance(params.burst.p_exit)
                        : rng.chance(params.burst.p_enter);
    if (bursting) {
      loss_probability = std::max(loss_probability, params.burst.loss);
    }
  }
  if (rng.chance(loss_probability)) {
    ++stats.lost;
    fate.outcome = SendFate::Outcome::Lost;
    return fate;
  }
  if (params.corrupt_probability > 0 &&
      rng.chance(params.corrupt_probability)) {
    fate.corrupt = true;
    fate.corrupt_bit = rng.below(payload_bits);
    ++stats.corrupted;
  }
  const auto sample_delay = [&] {
    const Time delay =
        params.min_delay +
        static_cast<Time>(rng.below(
            static_cast<std::uint64_t>(params.max_delay - params.min_delay) +
            1));
    if (spec_max_delay >= 0 && delay > spec_max_delay) {
      ++stats.out_of_spec_delay;
    }
    return delay;
  };
  fate.delay = sample_delay();
  if (params.duplicate_probability > 0 &&
      rng.chance(params.duplicate_probability)) {
    fate.duplicate = true;
    fate.duplicate_delay = sample_delay();
    ++stats.duplicated;
  }
  return fate;
}

}  // namespace ahb::sim
