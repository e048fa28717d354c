#include "hb/cluster_scale.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace ahb::hb {

ScaleCluster::ScaleCluster(const ClusterConfig& config)
    : config_(config),
      timer_priority_(config.receive_priority ? 1 : 0),
      rng_(config.seed),
      links_(sim::LinkParams{
          .loss_probability = config.loss_probability,
          .min_delay = config.min_delay,
          .max_delay = config.max_delay >= 0
                           ? config.max_delay
                           : std::max<sim::Time>(config.protocol.tmin / 2, 0),
          .corrupt_probability = config.corrupt_probability,
      }),
      // The channel assumption bounds the round trip by tmin, so a
      // one-way delay beyond tmin/2 is out of spec (NetworkStats::
      // out_of_spec_delay counts such samples when chaos injects them).
      spec_max_delay_(config.protocol.tmin / 2),
      coord_(config.protocol, config.participants),
      p_(static_cast<std::size_t>(config.participants) + 1,
         ParticipantState(config.protocol.variant)),
      p_timer_(p_.size()) {
  AHB_EXPECTS(config.protocol.valid());
  AHB_EXPECTS(links_.defaults().max_delay >= links_.defaults().min_delay);

  newest_to_coord_.assign(p_.size(), 0);
  newest_from_coord_.assign(p_.size(), 0);
}

void ScaleCluster::start() {
  AHB_EXPECTS(!started_);
  started_ = true;
  // The coordinator arms its first round (the revised binary variant
  // beats at once), then every participant arms its deadlines.
  if (step::start(coord_, local_now(0), config_.protocol) ==
      step::CoordinatorAct::Broadcast) {
    broadcast();
  }
  arm_node_timer(0);
  for (int i = 1; i <= participant_count(); ++i) {
    step::start(p_[static_cast<std::size_t>(i)], local_now(i),
                config_.protocol);
    arm_node_timer(i);
  }
}

void ScaleCluster::run_until(sim::Time horizon) {
  Wheel::Expired expired;
  while (wheel_.pop(horizon, expired)) handle(expired.payload);
}

void ScaleCluster::crash_coordinator_at(sim::Time when) {
  wheel_.post(when, 0, Ev::of(Ev::Kind::CrashCoordinator, 0));
}

void ScaleCluster::crash_participant_at(int id, sim::Time when) {
  AHB_EXPECTS(id >= 1 && id <= participant_count());
  wheel_.post(when, 0, Ev::of(Ev::Kind::CrashParticipant, id));
}

void ScaleCluster::leave_at(int id, sim::Time when) {
  AHB_EXPECTS(id >= 1 && id <= participant_count());
  wheel_.post(when, 0, Ev::of(Ev::Kind::Leave, id));
}

void ScaleCluster::rejoin_at(int id, sim::Time when) {
  AHB_EXPECTS(id >= 1 && id <= participant_count());
  wheel_.post(when, 0, Ev::of(Ev::Kind::Rejoin, id));
}

void ScaleCluster::set_drift_at(int id, sim::Time when, std::int64_t num,
                                std::int64_t den) {
  AHB_EXPECTS(id >= 0 && id <= participant_count());
  AHB_EXPECTS(num > 0 && den > 0);
  touch_clock(id);
  wheel_.post(when, 0, Ev::of(Ev::Kind::Drift, id, drift_rates_.size()));
  drift_rates_.emplace_back(num, den);
}

void ScaleCluster::corrupt_clock_at(int id, sim::Time when,
                                    std::int64_t delta) {
  AHB_EXPECTS(id >= 0 && id <= participant_count());
  touch_clock(id);
  wheel_.post(when, 0,
              Ev::of(Ev::Kind::ClockOffset, id,
                     static_cast<std::uint64_t>(delta)));
}

void ScaleCluster::wrap_clock_at(int id, sim::Time when,
                                 std::uint64_t margin) {
  AHB_EXPECTS(id >= 0 && id <= participant_count());
  touch_clock(id);
  wheel_.post(when, 0, Ev::of(Ev::Kind::ClockWrap, id, margin));
}

void ScaleCluster::change_link_at(sim::Time when, int from, int to,
                                  const sim::LinkChange& change) {
  wheel_.post(when, 0, Ev::of(Ev::Kind::LinkChange, 0, link_changes_.size()));
  link_changes_.push_back(TimedLinkChange{from, to, change});
}

bool ScaleCluster::is_member(int id) const {
  AHB_EXPECTS(id >= 1 && id <= participant_count());
  return coord_.is_member(id);
}

const ParticipantState& ScaleCluster::participant(int id) const {
  AHB_EXPECTS(id >= 1 && id <= participant_count());
  return p_[static_cast<std::size_t>(id)];
}

bool ScaleCluster::all_inactive() const {
  if (coord_.status == Status::Active) return false;
  return std::none_of(p_.begin() + 1, p_.end(), [](const auto& p) {
    return p.status == Status::Active;
  });
}

void ScaleCluster::handle(const Ev& ev) {
  switch (ev.kind) {
    case Ev::Kind::Deliver: {
      const WireMessage wire = unpack_wire(ev.from, ev.wire);
      if (ev.node == 0) {
        deliver_to_coordinator(ev.from, wire, ev.value());
      } else {
        deliver_to_participant(ev.node, ev.from, wire, ev.value());
      }
      break;
    }
    case Ev::Kind::NodeTimer:
      // The fired timer's handle is stale now (its seq is retired), so
      // the re-arm is a plain arm.
      node_elapsed(ev.node, local_now(ev.node));
      arm_node_timer(ev.node);
      break;
    case Ev::Kind::CrashCoordinator:
      (void)local_now(0);  // a crash is a clock read like any transition
      if (step::crash(coord_)) {
        emit(ProtocolEvent::Kind::CoordinatorCrashed, 0);
      }
      break;
    case Ev::Kind::CrashParticipant:
      (void)local_now(ev.node);
      if (step::crash(p_[static_cast<std::size_t>(ev.node)])) {
        emit(ProtocolEvent::Kind::ParticipantCrashed, ev.node);
      }
      break;
    case Ev::Kind::Leave: {
      ParticipantState& p = p_[static_cast<std::size_t>(ev.node)];
      if (proto::variant_leaves(config_.protocol.variant) &&
          p.status == Status::Active) {
        p.leave_requested = true;
      }
      break;
    }
    case Ev::Kind::Rejoin: {
      ParticipantState& p = p_[static_cast<std::size_t>(ev.node)];
      if (p.status != Status::Left) break;
      // The leave happens at the reply to the next beat, so its instant
      // is not known when the rejoin is scheduled; a rejoin that comes
      // before the leave beat has drained is dropped.
      if (!step::rejoin(p, local_now(ev.node), config_.protocol)) break;
      emit(ProtocolEvent::Kind::ParticipantRejoined, ev.node);
      arm_node_timer(ev.node);
      break;
    }
    case Ev::Kind::Drift: {
      const auto [num, den] = drift_rates_[ev.value()];
      apply_drift(ev.node, num, den);
      break;
    }
    case Ev::Kind::ClockOffset:
      apply_clock_offset(ev.node, static_cast<std::int64_t>(ev.value()));
      break;
    case Ev::Kind::ClockWrap:
      apply_clock_wrap(ev.node, ev.value());
      break;
    case Ev::Kind::LinkChange: {
      const TimedLinkChange& timed = link_changes_[ev.value()];
      links_.apply(timed.from, timed.to, timed.change);
      break;
    }
  }
}

namespace {

/// Lower bound of `node` in a node-sorted table of (node, value) pairs.
template <typename Table>
auto find_node(Table& table, int node) {
  return std::lower_bound(
      table.begin(), table.end(), node,
      [](const auto& entry, int key) { return entry.first < key; });
}

}  // namespace

ScaleCluster::NodeClock* ScaleCluster::clock_of(int node) {
  const auto it = find_node(clocks_, node);
  return it != clocks_.end() && it->first == node ? &it->second : nullptr;
}

ScaleCluster::NodeClock& ScaleCluster::touch_clock(int node) {
  const auto it = find_node(clocks_, node);
  if (it != clocks_.end() && it->first == node) return it->second;
  // The new clock reads the global clock, as if read right now.
  const auto at = static_cast<std::uint64_t>(now());
  return clocks_
      .insert(it, {node, NodeClock{.base_global = now(), .hw_base = at,
                                   .hw_last = at, .base_engine = now(),
                                   .engine_local = now()}})
      ->second;
}

sim::Time ScaleCluster::advance_clock(NodeClock& clock) {
  const std::uint64_t hw_now = clock.hw(now());
  if (hw_now == clock.hw_last) return clock.engine_local;
  if (config_.clock_guard) {
    // Modular-time idiom: only the age between two reads is meaningful,
    // and only when it fits the half range. An invalid age is never
    // acted on — the fault latches and the caller fences the node.
    const std::uint64_t age = hw_now - clock.hw_last;
    clock.hw_last = hw_now;
    if (age < (1ULL << 63)) {
      clock.engine_local += static_cast<sim::Time>(age);
    } else {
      clock.fault = true;
    }
    return clock.engine_local;
  }
  // Guard off (the historical bug): absolute register values compared
  // raw, so a wrap or backward jump makes local time leap backwards.
  // Saturating arithmetic keeps the leap itself well-defined.
  static constexpr sim::Time kClamp = kNever / 4;
  const auto clamped = [](__int128 value) {
    if (value > kClamp) return kClamp;
    if (value < -kClamp) return -kClamp;
    return static_cast<sim::Time>(value);
  };
  if (hw_now >= clock.hw_last) {
    clock.engine_local = clamped(static_cast<__int128>(clock.engine_local) +
                                 (hw_now - clock.hw_last));
  } else {
    clock.engine_local = clamped(static_cast<__int128>(clock.engine_local) -
                                 (clock.hw_last - hw_now));
    // The reconstruction left the affine track timers were mapped on;
    // re-anchor so future deadlines translate from the leaped clock.
    clock.hw_base = hw_now;
    clock.base_global = now();
    clock.base_engine = clock.engine_local;
  }
  clock.hw_last = hw_now;
  return clock.engine_local;
}

void ScaleCluster::apply_drift(int node, std::int64_t num, std::int64_t den) {
  NodeClock& clock = *clock_of(node);
  // Close the old affine segment (register and engine anchor stay
  // continuous across the rate change).
  clock.hw_base = clock.hw(now());
  clock.base_engine =
      clock.base_engine + (now() - clock.base_global) * clock.num / clock.den;
  clock.base_global = now();
  clock.num = num;
  clock.den = den;
  // Timers were armed under the old rate; re-arm at the new one.
  if (started_) arm_node_timer(node);
}

void ScaleCluster::apply_clock_offset(int node, std::int64_t delta) {
  NodeClock& clock = *clock_of(node);
  // Jump the register (rebasing the rate segment at the injection
  // instant) and force a clock read right away, so the node's reaction
  // — fail-safe fence on a backward jump, conservative timeout on a
  // forward one — is deterministic.
  clock.hw_base = clock.hw(now()) + static_cast<std::uint64_t>(delta);
  clock.base_global = now();
  const sim::Time local = advance_clock(clock);
  clock.base_engine = local;  // re-anchor the timer mapping
  clock.base_global = now();
  if (clock.fault) {
    fence_node(node, local);
    return;
  }
  // A forward jump may have blown straight past engine deadlines.
  node_elapsed(node, local);
  arm_node_timer(node);
}

void ScaleCluster::apply_clock_wrap(int node, std::uint64_t margin) {
  NodeClock& clock = *clock_of(node);
  const std::uint64_t hw_now = clock.hw(now());
  // Reposition the register `margin` ticks before the 2^64 boundary,
  // translating the read history by the same shift: no age changes,
  // only the absolute position — which the modular idiom never looks
  // at, and the raw comparison fatally does once the wrap crosses. The
  // engine<->global affine segment closes here like on a rate change:
  // the reposition must not move any armed deadline.
  const std::uint64_t shift = (0 - margin) - hw_now;
  clock.hw_base = hw_now + shift;
  clock.base_engine =
      clock.base_engine + (now() - clock.base_global) * clock.num / clock.den;
  clock.base_global = now();
  clock.hw_last += shift;
}

void ScaleCluster::fence_node(int node, sim::Time local) {
  if (node == 0) {
    if (step::fence(coord_, local)) {
      emit(ProtocolEvent::Kind::CoordinatorInactivated, 0);
    }
  } else if (step::fence(p_[static_cast<std::size_t>(node)], local)) {
    emit(ProtocolEvent::Kind::ParticipantInactivated, node);
  }
  arm_node_timer(node);  // inactive: cancels the pending timer
}

std::uint64_t ScaleCluster::send(int from, int to, bool flag) {
  const std::uint64_t id = next_msg_id_++;
  const sim::SendFate fate =
      sim::decide_send(rng_, links_, from, to, false, sizeof(WireMessage) * 8,
                       spec_max_delay_, net_stats_);
  channel(sim::ChannelEvent::Kind::Sent, from, to, id);
  if (fate.outcome == sim::SendFate::Outcome::Blocked) {
    channel(sim::ChannelEvent::Kind::Blocked, from, to, id);
    return id;
  }
  if (fate.outcome == sim::SendFate::Outcome::Lost) {
    channel(sim::ChannelEvent::Kind::Lost, from, to, id);
    return id;
  }
  if (fate.corrupt) channel(sim::ChannelEvent::Kind::Corrupted, from, to, id);
  Ev delivery = Ev::of(Ev::Kind::Deliver, to, id);
  delivery.from = from;
  delivery.wire = pack_wire(flag, fate.corrupt, fate.corrupt_bit);
  wheel_.post(now() + fate.delay, 0, delivery);
  if (fate.duplicate) {
    channel(sim::ChannelEvent::Kind::Duplicated, from, to, id);
    wheel_.post(now() + fate.duplicate_delay, 0, delivery);
  }
  return id;
}

void ScaleCluster::track_delivery(std::vector<std::uint64_t>& newest,
                                  int index, std::uint64_t id) {
  std::uint64_t& slot = newest[static_cast<std::size_t>(index)];
  if (id < slot) {
    ++net_stats_.reordered;
  } else {
    slot = id;
  }
}

std::optional<Message> ScaleCluster::decode_wire(
    int from, const WireMessage& wire) const {
  if (!config_.wire_validation) return wire_decode_unchecked(wire);
  std::optional<Message> msg = wire_decode(wire);
  // The checksum cannot catch a flip that lands a *different* valid
  // image; the transport-level origin does: the sender field must match
  // the link the image arrived on.
  if (msg && msg->sender != from) return std::nullopt;
  return msg;
}

void ScaleCluster::reject(int from, int to, std::uint64_t id) {
  ++net_stats_.rejected;
  channel(sim::ChannelEvent::Kind::Rejected, from, to, id);
}

void ScaleCluster::deliver_to_coordinator(int from, WireMessage wire,
                                          std::uint64_t id) {
  ++net_stats_.delivered;
  channel(sim::ChannelEvent::Kind::Delivered, from, 0, id);
  track_delivery(newest_to_coord_, from, id);
  // Boundary validation before any protocol effect: a corrupted image
  // is rejected and counted, never acted on (fail-safe), and the timer
  // is left as it was.
  const std::optional<Message> msg = decode_wire(from, wire);
  if (!msg) {
    reject(from, 0, id);
    return;
  }
  (void)local_now(0);  // a delivery is a clock read like any transition
  // A delivery to a crashed/inactive coordinator is absorbed silently.
  if (coord_.status == Status::Active) {
    emit(msg->flag ? ProtocolEvent::Kind::CoordinatorReceivedBeat
                   : ProtocolEvent::Kind::CoordinatorReceivedLeave,
         from, id);
    // Membership follows the decoded sender, which differs from the
    // link origin only when validation is off and a flip rewrote it.
    // The leave acknowledgement carries no protocol event.
    if (step::on_message(coord_, *msg, config_.protocol) ==
        step::CoordinatorAct::AckLeave) {
      send(0, msg->sender, false);
    }
  }
  arm_node_timer(0);
}

void ScaleCluster::deliver_to_participant(int id, int from, WireMessage wire,
                                          std::uint64_t msg_id) {
  ++net_stats_.delivered;
  channel(sim::ChannelEvent::Kind::Delivered, from, id, msg_id);
  track_delivery(newest_from_coord_, id, msg_id);
  const std::optional<Message> msg = decode_wire(from, wire);
  if (!msg) {
    reject(from, id, msg_id);
    return;
  }
  ParticipantState& p = p_[static_cast<std::size_t>(id)];
  if (msg->flag && p.status == Status::Active) {
    emit(ProtocolEvent::Kind::ParticipantReceivedBeat, id, msg_id);
  }
  const sim::Time local = local_now(id);
  participant_act(id, step::on_message(p, local, *msg, config_.protocol));
  arm_node_timer(id);
}

void ScaleCluster::node_elapsed(int node, sim::Time local) {
  if (node != 0) {
    participant_act(node, step::on_elapsed(p_[static_cast<std::size_t>(node)],
                                           local, config_.protocol));
    return;
  }
  const step::CoordinatorAct outcome =
      step::close_round(coord_, local, config_.protocol);
  if (outcome == step::CoordinatorAct::Broadcast) {
    ++scale_stats_.rounds;
    broadcast();
  } else if (outcome == step::CoordinatorAct::Inactivated) {
    emit(ProtocolEvent::Kind::CoordinatorInactivated, 0);
  }
}

void ScaleCluster::broadcast() {
  // Batched beat generation: the whole round fans out in one pass over
  // the joined bitset, ids consecutive in ascending member order. A
  // member-less round is still one (empty) broadcast event.
  std::uint64_t beat_id = 0;
  std::uint32_t fanout = 0;
  step::for_each_member(coord_, [&](int member) {
    const std::uint64_t id = send(0, member, true);
    if (beat_id == 0) beat_id = id;
    ++fanout;
  });
  scale_stats_.beats += fanout;
  emit(ProtocolEvent::Kind::CoordinatorBeat, 0, beat_id, fanout);
}

void ScaleCluster::participant_act(int id, step::ParticipantAct outcome) {
  using Act = step::ParticipantAct;
  if (outcome == Act::None) return;
  if (outcome == Act::Inactivated) {
    emit(ProtocolEvent::Kind::ParticipantInactivated, id);
    return;
  }
  const std::uint64_t out = send(id, 0, outcome != Act::Leave);
  ++scale_stats_.replies;
  emit(outcome == Act::Reply   ? ProtocolEvent::Kind::ParticipantReplied
       : outcome == Act::Leave ? ProtocolEvent::Kind::ParticipantLeft
                               : ProtocolEvent::Kind::ParticipantJoinBeat,
       id, out, 1);
}

void ScaleCluster::arm_node_timer(int id) {
  Wheel::Handle& handle =
      id == 0 ? coord_timer_ : p_timer_[static_cast<std::size_t>(id)];
  sim::Time when = id == 0 ? step::next_event(coord_)
                            : step::next_event(p_[static_cast<std::size_t>(id)]);
  // Engine deadlines live on the node's (possibly drifting) clock; the
  // timer fires at the global instant that reaches them.
  if (!clocks_.empty()) {
    if (const NodeClock* clock = clock_of(id)) when = clock->global_for(when);
  }
  if (when == kNever) {
    wheel_.cancel(handle);
    handle = Wheel::Handle{};
    return;
  }
  handle = wheel_.retime(handle, std::max(when, now()), timer_priority_,
                         Ev::of(Ev::Kind::NodeTimer, id));
}

void ScaleCluster::emit(ProtocolEvent::Kind kind, int node,
                        std::uint64_t msg_id, std::uint32_t fanout) {
  if (sinks_.wants(kind)) {
    sinks_.emit(ProtocolEvent{kind, now(), node, msg_id, fanout});
  }
}

}  // namespace ahb::hb
