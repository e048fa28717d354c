// The runtime-verification event-sink interface.
//
// A sink is a passive observer of one cluster execution: it receives
// the protocol-event stream (hb/protocol_event.hpp), optionally the
// channel-event stream (sim/link.hpp), and a final finish(horizon)
// when the run ends. hb::ScaleCluster fans events out through an
// rv::SinkChain (sink_chain.hpp), at millions of events/sec on a
// 100k-node cluster. Recording a run is a sink too: override the
// on_*_event calls you need.
//
// The line-rate contract: a sink declares the event kinds it wants via
// the interest masks, and the chain caches those masks at registration
// — the engine hot path pays one mask test per event kind and never
// constructs an event nobody subscribed to. Interest masks must be
// stable while registered; re-cache changed masks with
// SinkChain::refresh().
#pragma once

#include <cstdint>

#include "hb/protocol_event.hpp"
#include "sim/link.hpp"

namespace ahb::rv {

using Time = sim::Time;

/// Bit positions of the per-kind interest masks.
constexpr std::uint32_t protocol_bit(hb::ProtocolEvent::Kind kind) {
  return 1u << static_cast<int>(kind);
}
constexpr std::uint32_t channel_bit(sim::ChannelEvent::Kind kind) {
  return 1u << static_cast<int>(kind);
}

inline constexpr std::uint32_t kAllProtocolEvents =
    (1u << hb::ProtocolEvent::kKindCount) - 1;
inline constexpr std::uint32_t kAllChannelEvents =
    (1u << (static_cast<int>(sim::ChannelEvent::Kind::Rejected) + 1)) - 1;

class EventSink {
 public:
  virtual ~EventSink() = default;

  /// Bitmask over hb::ProtocolEvent::Kind (see protocol_bit) of the
  /// protocol events this sink wants delivered.
  virtual std::uint32_t protocol_interest() const { return kAllProtocolEvents; }
  /// Bitmask over sim::ChannelEvent::Kind (see channel_bit).
  virtual std::uint32_t channel_interest() const { return 0; }

  /// Events arrive in nondecreasing time order (the simulator's
  /// synchronous callbacks guarantee this).
  virtual void on_protocol_event(const hb::ProtocolEvent& event) {
    (void)event;
  }
  virtual void on_channel_event(const sim::ChannelEvent& event) {
    (void)event;
  }

  /// The run ended at `horizon`: settle pending obligations. A deadline
  /// at or after the horizon is undetermined, one strictly before it
  /// was missed.
  virtual void finish(Time horizon) { (void)horizon; }
};

}  // namespace ahb::rv
