#include "hb/participant.hpp"

#include "util/contracts.hpp"

namespace ahb::hb {

Participant::Participant(const Config& config, int id)
    : config_(config), id_(id), state_(config.variant) {
  AHB_EXPECTS(config.valid());
  AHB_EXPECTS(id > 0);
}

Actions Participant::start(Time now) {
  AHB_EXPECTS(!started_);
  started_ = true;
  step::start(state_, now, config_);
  return Actions{};
}

Actions Participant::on_elapsed(Time now) {
  return act(step::on_elapsed(state_, now, config_));
}

Actions Participant::on_message(Time now, const Message& message) {
  return act(step::on_message(state_, now, message, config_));
}

void Participant::crash(Time now) {
  (void)now;
  step::crash(state_);
}

Actions Participant::fence(Time now) {
  return act(step::fence(state_, now) ? step::ParticipantAct::Inactivated
                                      : step::ParticipantAct::None);
}

void Participant::request_leave() {
  AHB_EXPECTS(proto::variant_leaves(config_.variant));
  state_.leave_requested = true;
}

Actions Participant::rejoin(Time now) {
  const bool rejoined = step::rejoin(state_, now, config_);
  AHB_EXPECTS(rejoined);
  return Actions{};
}

Actions Participant::act(step::ParticipantAct outcome) const {
  using Act = step::ParticipantAct;
  Actions actions;
  actions.inactivated = outcome == Act::Inactivated;
  if (outcome != Act::None && !actions.inactivated) {
    // A reply, join beat or leave: each goes to p[0], only a leave with
    // a false flag.
    actions.messages.push_back(Outbound{0, Message{id_, outcome != Act::Leave}});
  }
  return actions;
}

}  // namespace ahb::hb
