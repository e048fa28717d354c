#include "hb/plain.hpp"

#include "util/contracts.hpp"

namespace ahb::hb {

PlainSender::PlainSender(int id, Time period) : id_(id), period_(period) {
  AHB_EXPECTS(period > 0);
}

Actions PlainSender::start(Time now) {
  AHB_EXPECTS(!started_);
  started_ = true;
  next_beat_ = now + period_;
  Actions actions;
  actions.messages.push_back(Outbound{0, Message{id_, true}});
  return actions;
}

Actions PlainSender::on_elapsed(Time now) {
  Actions actions;
  if (status_ != Status::Active || !started_) return actions;
  if (now < next_beat_) return actions;
  next_beat_ = now + period_;
  actions.messages.push_back(Outbound{0, Message{id_, true}});
  return actions;
}

void PlainSender::crash(Time now) {
  (void)now;
  if (status_ == Status::Active) status_ = Status::CrashedVoluntarily;
}

Time PlainSender::next_event_time() const {
  if (status_ != Status::Active || !started_) return kNever;
  return next_beat_;
}

PlainDetector::PlainDetector(Time period, int miss_threshold, Time max_delay)
    : timeout_(period * miss_threshold + max_delay) {
  AHB_EXPECTS(period > 0);
  AHB_EXPECTS(miss_threshold > 0);
  AHB_EXPECTS(max_delay >= 0);
}

void PlainDetector::start(Time now) {
  AHB_EXPECTS(!started_);
  started_ = true;
  deadline_ = now + timeout_;
}

Actions PlainDetector::on_elapsed(Time now) {
  Actions actions;
  if (!started_ || suspected_) return actions;
  if (now >= deadline_) {
    suspected_ = true;
    suspected_at_ = now;
    actions.inactivated = true;
  }
  return actions;
}

Actions PlainDetector::on_message(Time now, const Message& message) {
  (void)message;
  Actions actions;
  if (!started_ || suspected_) return actions;
  deadline_ = now + timeout_;
  return actions;
}

Time PlainDetector::next_event_time() const {
  if (!started_ || suspected_) return kNever;
  return deadline_;
}

}  // namespace ahb::hb
