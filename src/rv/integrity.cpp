#include "rv/integrity.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "hb/cluster_scale.hpp"

namespace ahb::rv {

IntegrityMonitor::IntegrityMonitor(const Config& config) : config_(config) {}

void IntegrityMonitor::attach(hb::ScaleCluster& cluster) {
  cluster.add_sink(this);
}

std::uint32_t IntegrityMonitor::protocol_interest() const {
  // The receive events are the only protocol kinds that prove the
  // engine *acted on* a delivered payload; everything else is noise
  // here.
  using Kind = hb::ProtocolEvent::Kind;
  return protocol_bit(Kind::CoordinatorReceivedBeat) |
         protocol_bit(Kind::CoordinatorReceivedLeave) |
         protocol_bit(Kind::ParticipantReceivedBeat);
}

std::uint32_t IntegrityMonitor::channel_interest() const {
  using Kind = sim::ChannelEvent::Kind;
  return channel_bit(Kind::Corrupted) | channel_bit(Kind::Delivered) |
         channel_bit(Kind::Rejected);
}

bool IntegrityMonitor::is_corrupted(std::uint64_t id) const {
  // Ids are assigned monotonically at send time and corruption happens
  // at send time, so the FIFO is sorted by id.
  auto it = std::lower_bound(
      corrupted_ids_.begin(), corrupted_ids_.end(), id,
      [](const auto& entry, std::uint64_t key) { return entry.first < key; });
  return it != corrupted_ids_.end() && it->first == id;
}

void IntegrityMonitor::prune(Time now) {
  if (config_.prune_window <= 0) return;
  while (!corrupted_ids_.empty() &&
         corrupted_ids_.front().second + config_.prune_window < now) {
    corrupted_ids_.pop_front();
  }
}

void IntegrityMonitor::record(int node, Time at, const char* what) {
  ++summary_.violations;
  if (violations_.size() < config_.max_recorded) {
    violations_.push_back(Violation{5, node, at, at, what});
  }
}

void IntegrityMonitor::on_channel_event(const sim::ChannelEvent& event) {
  ++events_seen_;
  using Kind = sim::ChannelEvent::Kind;
  switch (event.kind) {
    case Kind::Corrupted:
      prune(event.at);
      ++summary_.corrupted;
      corrupted_ids_.emplace_back(event.id, event.at);
      max_tracked_ = std::max(max_tracked_, corrupted_ids_.size());
      break;
    case Kind::Delivered:
      if (is_corrupted(event.id)) ++summary_.corrupted_delivered;
      break;
    case Kind::Rejected:
      if (is_corrupted(event.id)) {
        ++summary_.rejected_corrupted;
      } else {
        // Validation must never destroy clean traffic: a rejection of
        // an id we never saw corrupted is itself out of spec. (A
        // too-small prune window shows up here — keep it generous.)
        ++summary_.spurious_rejections;
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "boundary rejected clean message %" PRIu64, event.id);
        record(event.to, event.at, buf);
      }
      break;
    default:
      break;
  }
}

void IntegrityMonitor::on_protocol_event(const hb::ProtocolEvent& event) {
  ++events_seen_;
  if (event.msg_id == 0 || !is_corrupted(event.msg_id)) return;
  ++summary_.accepted;
  char buf[96];
  std::snprintf(buf, sizeof buf, "corrupted message %" PRIu64 " was accepted",
                event.msg_id);
  record(event.node, event.at, buf);
}

void IntegrityMonitor::finish(Time /*horizon*/) {
  // Every corrupted delivery must have produced a boundary rejection;
  // anything else means a corrupted payload crossed into the engine.
  if (summary_.corrupted_delivered == summary_.rejected_corrupted) return;
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "%" PRIu64 " corrupted deliveries but %" PRIu64
                " boundary rejections",
                summary_.corrupted_delivered, summary_.rejected_corrupted);
  record(0, 0, buf);
}

IntegritySummary& IntegritySummary::operator+=(const IntegritySummary& other) {
  corrupted += other.corrupted;
  corrupted_delivered += other.corrupted_delivered;
  rejected_corrupted += other.rejected_corrupted;
  spurious_rejections += other.spurious_rejections;
  accepted += other.accepted;
  violations += other.violations;
  return *this;
}

}  // namespace ahb::rv
