// Lossy, bounded-delay message transport for simulation experiments.
//
// Matches the channel assumptions of the protocol: a message is either
// lost or delivered within a bounded delay; delivery order between
// distinct messages is not guaranteed. Per-link loss probability and
// delay range are configurable, and faults (link down, node crash) can
// be injected at runtime.
//
// The fault models (per-link overrides, Gilbert–Elliott burst loss,
// duplication, corruption, link up/down) and the per-send fault
// decision with its RNG draw order live in sim/link.hpp, shared with
// hb::ScaleCluster's flat transport. Every send is stamped with a
// monotonically increasing message id which is handed to the receiver,
// so sends and deliveries are separately identifiable events; an
// optional channel-event observer sees every send/delivery/loss with
// that id. This generic transport carries any trivially copyable
// payload; the heartbeat engine uses its own flat transport, so here it
// serves the plain-heartbeat baseline and the transport tests.
//
// Hot-path state is dense: handlers and per-link newest-delivered ids
// live in vectors indexed by node id, node isolation is a bitset behind
// an any-isolated flag, and the sparse fault state hides behind
// empty-checks.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "util/dense_bitset.hpp"

namespace ahb::sim {

template <typename MessageT>
class Network {
 public:
  /// Message handler with the sender and the send-assigned message id
  /// (a duplicated delivery repeats the original id).
  using Handler = std::function<void(int from, const MessageT&, std::uint64_t id)>;
  /// Id-less handler kept for hosts that do not track message identity.
  using SimpleHandler = std::function<void(int from, const MessageT&)>;
  using Observer = std::function<void(const ChannelEvent&)>;

  using LinkParams = sim::LinkParams;

  explicit Network(Simulator& sim, LinkParams defaults = {})
      : sim_(&sim), links_(defaults) {}

  /// Registers the message handler of node `id`.
  void attach(int id, Handler handler) {
    AHB_EXPECTS(handler != nullptr);
    AHB_EXPECTS(id >= 0);
    if (static_cast<std::size_t>(id) >= handlers_.size()) {
      handlers_.resize(static_cast<std::size_t>(id) + 1);
    }
    handlers_[static_cast<std::size_t>(id)] = std::move(handler);
  }
  void attach(int id, SimpleHandler handler) {
    AHB_EXPECTS(handler != nullptr);
    attach(id, Handler{[h = std::move(handler)](
                           int from, const MessageT& m, std::uint64_t) {
      h(from, m);
    }});
  }

  /// Overrides parameters for the directed link from -> to.
  void set_link(int from, int to, LinkParams params) {
    links_.set(from, to, params);
  }

  /// Default parameters of links without an override; mutable at
  /// runtime (affects messages sent from now on, never in-flight ones).
  LinkParams& default_params() { return links_.defaults(); }

  /// Takes the directed link down (messages silently dropped) or up.
  void set_link_up(int from, int to, bool up) { links_.set_up(from, to, up); }

  /// Disconnects a node entirely (crash): all its incident messages are
  /// dropped from now on.
  void isolate(int id) {
    AHB_EXPECTS(id >= 0);
    if (static_cast<std::size_t>(id) >= isolated_.size()) {
      isolated_.resize(static_cast<std::size_t>(id) + 1);
    }
    isolated_.set(static_cast<std::size_t>(id));
    any_isolated_ = true;
  }

  /// One-way delay bound of the channel specification; sampled delays
  /// above it count into NetworkStats::out_of_spec_delay (chaos runs
  /// use the counter to prove a run exercised out-of-spec injection).
  /// Negative disables the classification.
  void set_spec_max_delay(Time bound) { spec_max_delay_ = bound; }

  /// Observer over every channel-level event (see ChannelEvent).
  void on_channel_event(Observer observer) { observer_ = std::move(observer); }

  /// Sends and returns the message id assigned to this send.
  std::uint64_t send(int from, int to, MessageT message) {
    const std::uint64_t id = next_id_++;
    const SendFate fate = decide_send(
        sim_->rng(), links_, from, to, is_isolated(from) || is_isolated(to),
        sizeof(MessageT) * 8, spec_max_delay_, stats_);
    notify(ChannelEvent::Kind::Sent, from, to, id);
    if (fate.outcome == SendFate::Outcome::Blocked) {
      notify(ChannelEvent::Kind::Blocked, from, to, id);
      return id;
    }
    if (fate.outcome == SendFate::Outcome::Lost) {
      notify(ChannelEvent::Kind::Lost, from, to, id);
      return id;
    }
    if (fate.corrupt) {
      corrupt_bit(message, fate.corrupt_bit);
      notify(ChannelEvent::Kind::Corrupted, from, to, id);
    }
    schedule_delivery(from, to, id, message, fate.delay);
    if (fate.duplicate) {
      notify(ChannelEvent::Kind::Duplicated, from, to, id);
      schedule_delivery(from, to, id, message, fate.duplicate_delay);
    }
    return id;
  }

  const NetworkStats& stats() const { return stats_; }

 private:
  void schedule_delivery(int from, int to, std::uint64_t id,
                         const MessageT& message, Time delay) {
    sim_->after(delay, [this, from, to, id, msg = message]() {
      if (is_isolated(to)) {
        ++stats_.blocked;
        notify(ChannelEvent::Kind::Blocked, from, to, id);
        return;
      }
      if (static_cast<std::size_t>(to) >= handlers_.size() ||
          !handlers_[static_cast<std::size_t>(to)]) {
        return;  // crashed nodes receive silently
      }
      ++stats_.delivered;
      std::uint64_t& newest = newest_delivered(from, to);
      if (id < newest) {
        ++stats_.reordered;
      } else {
        newest = id;
      }
      notify(ChannelEvent::Kind::Delivered, from, to, id);
      handlers_[static_cast<std::size_t>(to)](from, msg, id);
    });
  }

  void notify(ChannelEvent::Kind kind, int from, int to, std::uint64_t id) {
    if (observer_) {
      observer_(ChannelEvent{kind, from, to, id, sim_->now()});
    }
  }

  bool is_isolated(int id) const {
    return any_isolated_ && id >= 0 &&
           static_cast<std::size_t>(id) < isolated_.size() &&
           isolated_.test(static_cast<std::size_t>(id));
  }

  /// Newest-delivered id per directed link, dense by [to][from]: the
  /// reordering counter's state is touched on every delivery.
  std::uint64_t& newest_delivered(int from, int to) {
    if (static_cast<std::size_t>(to) >= newest_delivered_.size()) {
      newest_delivered_.resize(static_cast<std::size_t>(to) + 1);
    }
    auto& by_from = newest_delivered_[static_cast<std::size_t>(to)];
    if (static_cast<std::size_t>(from) >= by_from.size()) {
      by_from.resize(static_cast<std::size_t>(from) + 1, 0);
    }
    return by_from[static_cast<std::size_t>(from)];
  }

  Simulator* sim_;
  LinkFaults links_;
  std::vector<Handler> handlers_;
  DenseBitset isolated_;
  bool any_isolated_ = false;
  std::vector<std::vector<std::uint64_t>> newest_delivered_;
  std::uint64_t next_id_ = 1;
  Time spec_max_delay_ = -1;
  Observer observer_;
  NetworkStats stats_;
};

}  // namespace ahb::sim
