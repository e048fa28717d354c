// Failure-detector facade over the accelerated heartbeat coordinator.
//
// The 1998 protocol is all-or-nothing: once the coordinator's waiting
// time drops below tmin it deactivates the whole network. Many systems
// instead want per-member suspicion ("is node 7 probably down?") long
// before that. The coordinator's acceleration state provides exactly
// that gradient for free: a member whose waiting time tm[i] has been
// halved k times has missed k consecutive rounds. This facade exposes
// it as an eventually-perfect-style suspect/trust interface, which is
// the building block the analysis names as its own follow-up work
// ("protocols for failure detectors").
#pragma once

#include "hb/coordinator.hpp"

namespace ahb::hb {

class FailureDetector {
 public:
  /// `suspect_after_misses`: how many consecutive missed rounds before a
  /// member is suspected (1 = aggressive, log2(tmax/tmin) = only just
  /// before the protocol would give the member up).
  /// `participants`: members 1..n, as for the Coordinator.
  FailureDetector(const Config& config, int participants,
                  int suspect_after_misses = 2);

  // Sans-I/O driving interface, forwarded to the coordinator.
  Actions start(Time now) { return coordinator_.start(now); }
  Actions on_elapsed(Time now) { return coordinator_.on_elapsed(now); }
  Actions on_message(Time now, const Message& message) {
    return coordinator_.on_message(now, message);
  }
  Time next_event_time() const { return coordinator_.next_event_time(); }

  /// True iff `id` has missed at least the configured number of
  /// consecutive rounds (or the whole detector has deactivated).
  bool suspects(int id) const;

  /// Consecutive missed rounds of `id` (0 while healthy).
  int missed_rounds(int id) const;

  /// All currently suspected members.
  std::vector<int> suspected() const;

  /// The detector itself went down (coordinator deactivated): every
  /// member is then suspected.
  bool down() const {
    return coordinator_.status() != Status::Active;
  }

  Coordinator& coordinator() { return coordinator_; }
  const Coordinator& coordinator() const { return coordinator_; }

 private:
  Coordinator coordinator_;
  int suspect_after_misses_;
};

}  // namespace ahb::hb
