// Plain (non-accelerated) heartbeat baseline: a sender beating at a
// fixed period and a detector that declares failure after k consecutive
// missed periods. This is the conventional protocol the accelerated
// variants are compared against in the benchmarks: to match the
// accelerated protocol's tolerance to sporadic loss, the plain protocol
// must either beat faster (more overhead) or wait more periods (longer
// detection delay).
#pragma once

#include "hb/types.hpp"

namespace ahb::hb {

class PlainSender {
 public:
  PlainSender(int id, Time period);

  Actions start(Time now);
  Actions on_elapsed(Time now);
  void crash(Time now);

  Status status() const { return status_; }
  Time next_event_time() const;
  Time period() const { return period_; }

 private:
  int id_;
  Time period_;
  Status status_ = Status::Active;
  Time next_beat_ = 0;
  bool started_ = false;
};

class PlainDetector {
 public:
  /// Declares failure after `miss_threshold` periods, plus the link's
  /// one-way delay bound `max_delay`, without any beat: consecutive
  /// beats can arrive up to period + max_delay apart without a loss.
  PlainDetector(Time period, int miss_threshold, Time max_delay);

  void start(Time now);
  Actions on_elapsed(Time now);
  Actions on_message(Time now, const Message& message);

  bool suspected() const { return suspected_; }
  Time suspected_at() const { return suspected_at_; }
  Time next_event_time() const;
  Time timeout() const { return timeout_; }

 private:
  Time timeout_;
  bool started_ = false;
  bool suspected_ = false;
  Time deadline_ = 0;
  Time suspected_at_ = kNever;
};

}  // namespace ahb::hb
