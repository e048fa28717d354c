// IntegrityMonitor: the fail-safe obligation of payload corruption.
//
// The chaos layer's CorruptPayload fault flips bits on in-flight wire
// images; the engines' boundary validation (hb/wire.hpp) must reject
// every corrupted delivery before the protocol acts on it. This sink
// checks that obligation online, requirement "R5" in the violation
// records:
//
//   - a corrupted payload is never *accepted*: no coordinator/
//     participant receive event may carry the message id of a
//     corrupted send;
//   - every corrupted delivery is rejected at the boundary: at the end
//     of the run, corrupted_delivered == rejected_corrupted;
//   - validation never destroys clean traffic: a Rejected event whose
//     id was never corrupted is a spurious rejection.
//
// Memory is bounded for arbitrarily long missions: corrupted ids are
// kept in a time-pruned FIFO (ids are monotone, so membership is a
// binary search), and only the first `max_recorded` violations are
// stored verbatim — the rest are counted. The high-water mark of the
// tracked set is exposed so missions can assert boundedness.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "rv/event_sink.hpp"
#include "rv/monitor.hpp"

namespace ahb::hb {
class ScaleCluster;
}  // namespace ahb::hb

namespace ahb::rv {

/// Aggregate integrity counters of one run (campaigns sum them).
struct IntegritySummary {
  std::uint64_t corrupted = 0;            ///< Corrupted channel events
  std::uint64_t corrupted_delivered = 0;  ///< deliveries of corrupted ids
  std::uint64_t rejected_corrupted = 0;   ///< boundary rejections of those
  std::uint64_t spurious_rejections = 0;  ///< rejections of clean ids
  std::uint64_t accepted = 0;             ///< corrupted ids the engine acted on
  std::uint64_t violations = 0;           ///< total (recorded + counted)

  IntegritySummary& operator+=(const IntegritySummary& other);
  /// The hard fail-safe check: nothing accepted, nothing unrejected,
  /// nothing clean destroyed.
  bool fail_safe() const {
    return accepted == 0 && spurious_rejections == 0 &&
           corrupted_delivered == rejected_corrupted;
  }
};

class IntegrityMonitor final : public EventSink {
 public:
  struct Config {
    /// Corrupted ids older than this are pruned (their deliveries are
    /// settled; duplicates of a corrupted send repeat its id within the
    /// delay bound, so any generous multiple of tmax is safe). 0 keeps
    /// every id for the whole run.
    Time prune_window = 0;
    /// Violations stored verbatim; the rest only count.
    std::size_t max_recorded = 16;
  };

  IntegrityMonitor() : IntegrityMonitor(Config{}) {}
  explicit IntegrityMonitor(const Config& config);

  void attach(hb::ScaleCluster& cluster);

  std::uint32_t protocol_interest() const override;
  std::uint32_t channel_interest() const override;
  void on_protocol_event(const hb::ProtocolEvent& event) override;
  void on_channel_event(const sim::ChannelEvent& event) override;
  void finish(Time horizon) override;

  const IntegritySummary& summary() const { return summary_; }
  const std::vector<Violation>& violations() const { return violations_; }
  /// High-water mark of the tracked corrupted-id set (bounded-memory
  /// assertion of long missions).
  std::size_t max_tracked() const { return max_tracked_; }
  std::uint64_t events_seen() const { return events_seen_; }

 private:
  bool is_corrupted(std::uint64_t id) const;
  void prune(Time now);
  void record(int node, Time at, const char* what);

  Config config_;
  /// (id, corrupted-at), id-monotone — pushed at send, pruned by time.
  std::deque<std::pair<std::uint64_t, Time>> corrupted_ids_;
  std::size_t max_tracked_ = 0;
  std::uint64_t events_seen_ = 0;
  IntegritySummary summary_;
  std::vector<Violation> violations_;
};

}  // namespace ahb::rv
