#include "mc/ndfs.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace ahb::mc {

namespace {

enum Color : std::uint8_t { kWhite = 0, kCyan = 1, kBlue = 2 };

struct Frame {
  std::uint32_t index;
  std::vector<std::uint32_t> children;
  std::size_t next = 0;
};

}  // namespace

LivenessResult find_accepting_cycle(const ta::Network& net,
                                    const Pred& accepting,
                                    const SearchLimits& limits) {
  AHB_EXPECTS(net.frozen());
  AHB_EXPECTS(accepting != nullptr);
  const auto start_time = std::chrono::steady_clock::now();

  StateStore store{net.slot_count()};
  std::vector<std::uint8_t> color;
  std::vector<bool> red;
  std::uint64_t transitions = 0;
  ta::SuccessorScratch scratch;
  ta::State state_buf;
  ta::State canon_buf;
  const ta::StateCodec& codec = net.codec();
  const bool canon = limits.symmetry == ta::Symmetry::Participants &&
                     codec.has_canonicalization();

  const auto is_accepting = [&](std::uint32_t index) {
    const ta::State s = store.get(index);
    return accepting(ta::StateView{net, s});
  };

  const auto expand = [&](std::uint32_t index) {
    std::vector<std::uint32_t> children;
    state_buf.assign(store.raw(index));
    net.for_each_successor(state_buf, scratch, [&](const ta::SuccessorView& v) {
      ++transitions;
      std::uint32_t child;
      if (canon) {
        canon_buf.assign(v.target);
        codec.canonicalize(canon_buf.slots_mut());
        child = store.intern(canon_buf).first;
      } else {
        child = store.intern(v.target).first;
      }
      if (color.size() < store.size()) {
        color.resize(store.size(), kWhite);
        red.resize(store.size(), false);
      }
      children.push_back(child);
    });
    return children;
  };

  LivenessResult result;
  const auto finish = [&](bool complete) {
    result.complete = complete;
    result.stats.states = store.size();
    result.stats.transitions = transitions;
    result.stats.store_bytes = store.memory_bytes();
    result.stats.elapsed = std::chrono::steady_clock::now() - start_time;
    return result;
  };

  const auto build_lasso = [&](const std::vector<Frame>& blue_stack,
                               const std::vector<Frame>& red_stack,
                               std::uint32_t closing) {
    // Stem: blue stack up to (and including) the closing state; cycle:
    // the rest of the blue stack, then the red path, closing back.
    std::vector<std::uint32_t> path;
    std::size_t close_pos = 0;
    for (std::size_t i = 0; i < blue_stack.size(); ++i) {
      path.push_back(blue_stack[i].index);
      if (blue_stack[i].index == closing) close_pos = i;
    }
    // Red stack starts at the seed, which equals the blue stack top;
    // skip that duplicate.
    for (std::size_t i = 1; i < red_stack.size(); ++i) {
      path.push_back(red_stack[i].index);
    }
    path.push_back(closing);

    result.cycle_found = true;
    result.stem_length = close_pos;
    result.lasso.clear();
    for (std::size_t i = 0; i < path.size(); ++i) {
      const ta::State s = store.get(path[i]);
      std::string action;
      if (i > 0) {
        // The label belongs to the first real successor whose image is
        // the stored child (under symmetry, quotient edges connect
        // canonical representatives).
        const ta::State prev = store.get(path[i - 1]);
        action = "<unknown>";
        net.for_each_successor(prev, scratch, [&](const ta::SuccessorView& v) {
          canon_buf.assign(v.target);
          if (canon) codec.canonicalize(canon_buf.slots_mut());
          if (std::ranges::equal(canon_buf.slots(), s.slots())) {
            action = net.label_of(v);
            return false;
          }
          return true;
        });
      }
      result.lasso.push_back(TraceStep{std::move(action), s});
    }
  };

  ta::State init = net.initial_state();
  if (canon) codec.canonicalize(init.slots_mut());
  auto [init_index, inserted] = store.intern(init);
  AHB_ASSERT(inserted);
  color.resize(store.size(), kWhite);
  red.resize(store.size(), false);

  std::vector<Frame> blue_stack;
  blue_stack.push_back(Frame{init_index, expand(init_index), 0});
  color[init_index] = kCyan;

  while (!blue_stack.empty()) {
    if (store.size() >= limits.max_states) return finish(false);
    Frame& top = blue_stack.back();
    if (top.next < top.children.size()) {
      const std::uint32_t child = top.children[top.next++];
      if (color[child] == kCyan &&
          (is_accepting(top.index) || is_accepting(child))) {
        // Early cycle through the blue stack itself.
        std::vector<Frame> trivial_red;
        trivial_red.push_back(Frame{top.index, {}, 0});
        build_lasso(blue_stack, trivial_red, child);
        return finish(false);
      }
      if (color[child] == kWhite) {
        color[child] = kCyan;
        blue_stack.push_back(Frame{child, expand(child), 0});
      }
      continue;
    }

    // Postorder: run the red search from accepting states.
    if (is_accepting(top.index) && !red[top.index]) {
      std::vector<Frame> red_stack;
      red_stack.push_back(Frame{top.index, expand(top.index), 0});
      red[top.index] = true;
      while (!red_stack.empty()) {
        Frame& rtop = red_stack.back();
        if (rtop.next < rtop.children.size()) {
          const std::uint32_t child = rtop.children[rtop.next++];
          if (color[child] == kCyan) {
            build_lasso(blue_stack, red_stack, child);
            return finish(false);
          }
          if (!red[child]) {
            red[child] = true;
            red_stack.push_back(Frame{child, expand(child), 0});
          }
          continue;
        }
        red_stack.pop_back();
      }
    }
    color[top.index] = kBlue;
    blue_stack.pop_back();
  }
  return finish(true);
}

}  // namespace ahb::mc
