#include "hb/coordinator.hpp"

#include "util/contracts.hpp"

namespace ahb::hb {

Coordinator::Coordinator(const Config& config, int participants)
    : config_(config), state_(config, participants) {
  AHB_EXPECTS(config.valid());
}

Actions Coordinator::start(Time now) {
  AHB_EXPECTS(!started_);
  started_ = true;
  return act(step::start(state_, now, config_));
}

Actions Coordinator::on_elapsed(Time now) {
  const step::CoordinatorAct outcome = step::close_round(state_, now, config_);
  Actions actions = act(outcome);
  actions.round_completed = outcome == step::CoordinatorAct::Broadcast;
  return actions;
}

Actions Coordinator::on_message(Time now, const Message& message) {
  (void)now;
  return act(step::on_message(state_, message, config_), message.sender);
}

void Coordinator::crash(Time now) {
  (void)now;
  step::crash(state_);
}

Actions Coordinator::fence(Time now) {
  return act(step::fence(state_, now) ? step::CoordinatorAct::Inactivated
                                      : step::CoordinatorAct::None);
}

Actions Coordinator::act(step::CoordinatorAct outcome, int sender) const {
  using Act = step::CoordinatorAct;
  Actions actions;
  actions.inactivated = outcome == Act::Inactivated;
  if (outcome == Act::AckLeave) {
    actions.messages.push_back(Outbound{sender, Message{0, false}});
  } else if (outcome == Act::Broadcast) {
    step::for_each_member(state_, [&](int id) {
      actions.messages.push_back(Outbound{id, Message{0, true}});
    });
  }
  return actions;
}

Time Coordinator::member_wait(int id) const {
  return is_member(id) ? state_.tm[static_cast<std::size_t>(id)]
                       : config_.tmax;
}

std::vector<int> Coordinator::member_ids() const {
  std::vector<int> ids;
  step::for_each_member(state_, [&](int id) { ids.push_back(id); });
  return ids;
}

}  // namespace ahb::hb
