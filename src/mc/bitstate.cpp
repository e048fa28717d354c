#include "mc/bitstate.hpp"

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace ahb::mc {

BitstateFilter::BitstateFilter(int log2_bits, int hashes_per_state)
    : k_(hashes_per_state) {
  AHB_EXPECTS(log2_bits >= 10 && log2_bits <= 40);
  AHB_EXPECTS(hashes_per_state >= 1 && hashes_per_state <= 8);
  const std::uint64_t bit_total = 1ULL << log2_bits;
  bits_.assign(static_cast<std::size_t>(bit_total / 64), 0);
  mask_ = bit_total - 1;
}

namespace {

/// Derives the i-th probe position via splitmix-style remixing, which
/// decorrelates the k probes of one state.
std::uint64_t probe(std::uint64_t hash, int i) {
  std::uint64_t state = hash + static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
  return splitmix64(state);
}

}  // namespace

bool BitstateFilter::insert(std::uint64_t state_hash) {
  bool fresh = false;
  for (int i = 0; i < k_; ++i) {
    const std::uint64_t bit = probe(state_hash, i) & mask_;
    std::uint64_t& word = bits_[static_cast<std::size_t>(bit / 64)];
    const std::uint64_t flag = 1ULL << (bit % 64);
    if ((word & flag) == 0) {
      word |= flag;
      fresh = true;
    }
  }
  if (fresh) ++inserted_;
  return fresh;
}

bool BitstateFilter::contains(std::uint64_t state_hash) const {
  for (int i = 0; i < k_; ++i) {
    const std::uint64_t bit = probe(state_hash, i) & mask_;
    const std::uint64_t word = bits_[static_cast<std::size_t>(bit / 64)];
    if ((word & (1ULL << (bit % 64))) == 0) return false;
  }
  return true;
}

BitstateResult reach_bitstate(const ta::Network& net, const Pred& target,
                              int log2_bits, const SearchLimits& limits) {
  AHB_EXPECTS(net.frozen());
  AHB_EXPECTS(target != nullptr);
  const auto start_time = std::chrono::steady_clock::now();
  const std::uint64_t max_depth =
      limits.max_depth != 0 ? limits.max_depth : 1'000'000;

  // With compression requested, hash the codec's bit-packed image instead
  // of the raw slot vector. Both are injective, so either is a valid
  // filter key; the packed image mixes every slot's entropy into fewer
  // bytes, which measurably lowers the double-hash collision rate on
  // models whose slots are mostly narrow booleans. None hashes the raw
  // slot vector.
  const ta::StateCodec* codec = limits.compression != ta::Compression::None
                                    ? &net.codec()
                                    : nullptr;
  std::vector<std::byte> packed(codec != nullptr ? codec->packed_bytes() : 0);
  const auto state_hash = [&](const ta::State& s) {
    return codec != nullptr ? codec->packed_hash(s.slots(), packed) : s.hash();
  };

  BitstateFilter filter{log2_bits};
  std::uint64_t transitions = 0;
  std::uint64_t deepest = 0;

  struct Frame {
    ta::State state;
    std::vector<ta::Transition> successors;
    std::size_t next = 0;
  };

  BitstateResult result;
  const auto finish = [&] {
    result.stats.states = filter.inserted();
    result.stats.transitions = transitions;
    result.stats.depth = deepest;
    result.stats.store_bytes = filter.memory_bytes();
    result.stats.elapsed = std::chrono::steady_clock::now() - start_time;
    return result;
  };
  const auto build_trace = [&](const std::vector<Frame>& stack) {
    result.trace.clear();
    for (std::size_t i = 0; i < stack.size(); ++i) {
      std::string action;
      if (i > 0) {
        const auto& prev = stack[i - 1];
        // The transition taken from the previous frame is the one just
        // before its `next` cursor.
        action = net.label_of(prev.successors[prev.next - 1]);
      }
      result.trace.push_back(TraceStep{std::move(action), stack[i].state});
    }
  };

  std::vector<Frame> stack;
  {
    ta::State init = net.initial_state();
    filter.insert(state_hash(init));
    if (target(ta::StateView{net, init})) {
      result.found = true;
      stack.push_back(Frame{std::move(init), {}, 0});
      build_trace(stack);
      return finish();
    }
    auto successors = net.successors(init);
    stack.push_back(Frame{std::move(init), std::move(successors), 0});
  }

  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next >= top.successors.size()) {
      stack.pop_back();
      continue;
    }
    ta::Transition& t = top.successors[top.next++];
    ++transitions;
    if (filter.inserted() >= limits.max_states) return finish();
    if (!filter.insert(state_hash(t.target))) continue;  // probably visited

    if (target(ta::StateView{net, t.target})) {
      result.found = true;
      stack.push_back(Frame{std::move(t.target), {}, 0});
      build_trace(stack);
      return finish();
    }
    if (stack.size() >= max_depth) continue;  // depth-bounded
    auto successors = net.successors(t.target);
    stack.push_back(Frame{std::move(t.target), std::move(successors), 0});
    deepest = std::max<std::uint64_t>(deepest, stack.size());
  }
  return finish();
}

}  // namespace ahb::mc
