// Test-only successor list: every transition of a state, copied out of
// ta::Network::for_each_successor's scratch so a test can index, keep and
// compare them.
#pragma once

#include <vector>

#include "ta/network.hpp"

namespace ahb::test {

/// One successor with its target and receivers owned.
struct Successor {
  ta::State target;
  ta::Transition::Kind kind = ta::Transition::Kind::Tick;
  ta::Transition::Part sender{};
  std::vector<ta::Transition::Part> receivers;

  ta::SuccessorView view() const {
    return {target.slots(), kind, sender, receivers};
  }
};

/// The successors of `s`, in for_each_successor order.
inline std::vector<Successor> successors(const ta::Network& net,
                                         const ta::State& s) {
  std::vector<Successor> out;
  ta::SuccessorScratch scratch;
  net.for_each_successor(s, scratch, [&](const ta::SuccessorView& v) {
    out.push_back(Successor{ta::State{v.target}, v.kind, v.sender,
                            {v.receivers.begin(), v.receivers.end()}});
  });
  return out;
}

}  // namespace ahb::test
