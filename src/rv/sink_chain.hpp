// SinkChain: the engine's fan-out point for runtime-verification sinks.
//
// The chain caches each sink's interest masks at registration and the
// OR of all of them, so an engine's emit path is
//
//   if (sinks_.wants(kind)) sinks_.emit(Event{...});
//
// — one AND per emitted kind when nothing is listening, one extra
// cached-mask AND per registered sink when something is. Registration
// is not thread-safe and must happen before the run starts; delivery is
// single-threaded (the simulator's callback discipline).
#pragma once

#include <vector>

#include "rv/event_sink.hpp"
#include "util/contracts.hpp"

namespace ahb::rv {

class SinkChain {
 public:
  /// Registers `sink` (not owned; must outlive the chain or be removed
  /// by destroying the chain first). Delivery order is registration
  /// order.
  void add(EventSink* sink) {
    AHB_EXPECTS(sink != nullptr);
    entries_.push_back(Entry{sink, 0, 0});
    refresh();
  }

  /// Deregisters `sink` so it can be destroyed while the engine lives
  /// on; a sink that was never registered is a no-op. Like add(), not
  /// safe while an emit is in flight.
  void remove(EventSink* sink) {
    std::erase_if(entries_,
                  [sink](const Entry& entry) { return entry.sink == sink; });
    refresh();
  }

  /// Re-caches every sink's interest masks. Call after a sink's
  /// interests change.
  void refresh() {
    protocol_mask_ = 0;
    channel_mask_ = 0;
    for (Entry& entry : entries_) {
      entry.protocol_mask = entry.sink->protocol_interest();
      entry.channel_mask = entry.sink->channel_interest();
      protocol_mask_ |= entry.protocol_mask;
      channel_mask_ |= entry.channel_mask;
    }
  }

  bool wants(hb::ProtocolEvent::Kind kind) const {
    return (protocol_mask_ & protocol_bit(kind)) != 0;
  }
  bool wants(sim::ChannelEvent::Kind kind) const {
    return (channel_mask_ & channel_bit(kind)) != 0;
  }
  std::uint32_t protocol_mask() const { return protocol_mask_; }
  std::uint32_t channel_mask() const { return channel_mask_; }
  bool empty() const { return entries_.empty(); }

  void emit(const hb::ProtocolEvent& event) {
    const std::uint32_t bit = protocol_bit(event.kind);
    for (Entry& entry : entries_) {
      if ((entry.protocol_mask & bit) != 0) entry.sink->on_protocol_event(event);
    }
  }

  void emit(const sim::ChannelEvent& event) {
    const std::uint32_t bit = channel_bit(event.kind);
    for (Entry& entry : entries_) {
      if ((entry.channel_mask & bit) != 0) entry.sink->on_channel_event(event);
    }
  }

  void finish(Time horizon) {
    for (Entry& entry : entries_) entry.sink->finish(horizon);
  }

 private:
  struct Entry {
    EventSink* sink;
    std::uint32_t protocol_mask;
    std::uint32_t channel_mask;
  };

  std::vector<Entry> entries_;
  std::uint32_t protocol_mask_ = 0;
  std::uint32_t channel_mask_ = 0;
};

}  // namespace ahb::rv
