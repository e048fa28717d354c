#include "mc/explorer.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <deque>
#include <thread>

#include "util/contracts.hpp"

namespace ahb::mc {

namespace {

unsigned resolve_threads(unsigned requested) {
  if (requested != 0) return std::min(requested, kMaxThreads);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

bool lex_less(std::span<const ta::Slot> a, std::span<const ta::Slot> b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

// Committed-chain fusion bound: a chain longer than this interns an
// intermediate canonical state, which both bounds the recursion and acts
// as the POR cycle proviso (a committed cycle re-enters the store and
// terminates through duplicate detection).
constexpr std::uint32_t kFusionDepthCap = 64;

/// Fused-transient worklist: a swap-out stack of reusable State buffers,
/// so committed-chain expansion allocates only on high-water growth.
class FusedStack {
 public:
  void push(std::span<const ta::Slot> target, std::uint32_t depth) {
    if (top_ < states_.size()) {
      states_[top_].assign(target);
      depths_[top_] = depth;
    } else {
      states_.emplace_back(target);
      depths_.push_back(depth);
    }
    ++top_;
  }

  /// Swaps the top item out of its slot into `out` and returns its
  /// fusion depth; the item's own expansion pushes into the vacated slot.
  std::uint32_t pop(ta::State& out) {
    --top_;
    std::swap(out, states_[top_]);
    return depths_[top_];
  }

  bool empty() const { return top_ == 0; }
  void clear() { top_ = 0; }

 private:
  std::vector<ta::State> states_;
  std::vector<std::uint32_t> depths_;
  std::size_t top_ = 0;
};

/// Plain or ample-set-reduced successor enumeration.
template <typename F>
void for_each_successor(const ta::Network& net, bool por, const ta::State& s,
                        ta::SuccessorScratch& scratch, F&& f) {
  if (por) {
    net.for_each_successor_reduced(s, scratch, std::forward<F>(f));
  } else {
    net.for_each_successor(s, scratch, std::forward<F>(f));
  }
}

/// The stored states from the initial state to `last`, following the
/// store's parent links, plus the canonical image of a transient hit.
template <typename Store>
std::vector<ta::State> stored_chain(const Store& store, std::uint32_t last,
                                    const ta::State* transient_hit) {
  std::vector<ta::State> chain;
  for (std::uint32_t i = last; i != Store::kInvalidIndex;
       i = store.parent_of(i)) {
    chain.push_back(store.get(i));
  }
  std::reverse(chain.begin(), chain.end());
  if (transient_hit != nullptr) chain.push_back(*transient_hit);
  return chain;
}

/// Settlement bookkeeping of a multi-target search, shared by both BFS
/// loops: the targets still live and the results of those settled. A
/// target settles at its first hit with a snapshot of the statistics at
/// that moment; the search goes on while any target is live.
class Targets {
 public:
  explicit Targets(std::size_t n) : results_(n), live_(n) {
    for (std::size_t k = 0; k < n; ++k) live_[k] = k;
  }

  std::span<const std::size_t> live() const { return live_; }
  bool all_settled() const { return live_.empty(); }

  /// Settles every target in `hits` (all live) as found, with one trace.
  void settle(std::span<const std::size_t> hits,
              const std::vector<TraceStep>& trace, const SearchStats& stats,
              bool complete) {
    for (const std::size_t k : hits) {
      SearchResult& r = results_[k];
      r.found = true;
      r.complete = complete;
      r.trace = trace;
      r.stats = stats;
      std::erase(live_, k);
    }
  }

  /// Ends the search: every live target gets the final statistics.
  std::vector<SearchResult> finish(const SearchStats& stats, bool complete) {
    for (const std::size_t k : live_) {
      results_[k].complete = complete;
      results_[k].stats = stats;
    }
    live_.clear();
    return std::move(results_);
  }

 private:
  std::vector<SearchResult> results_;
  std::vector<std::size_t> live_;
};

}  // namespace

Explorer::Explorer(const ta::Network& net) : net_(&net) {
  AHB_EXPECTS(net.frozen());
}

std::vector<SearchResult> Explorer::run(std::span<const StopFn> stops,
                                        const SearchLimits& limits) {
  if (stops.empty()) return {};
  const unsigned threads = resolve_threads(limits.threads);
  if (threads == 1) return bfs_sequential(stops, limits);
  return bfs_parallel(stops, limits, threads);
}

std::vector<SearchResult> Explorer::bfs_sequential(
    std::span<const StopFn> stops, const SearchLimits& limits) {
  const auto start_time = std::chrono::steady_clock::now();
  const ta::StateCodec& codec = net_->codec();
  StateStore store{codec, limits.compression};
  const bool canon = limits.symmetry == ta::Symmetry::Participants &&
                     codec.has_canonicalization();
  const bool por = limits.por;
  std::uint64_t transitions = 0;
  std::uint64_t depth = 0;
  std::uint64_t fused = 0;

  Targets targets{stops.size()};
  const auto stats = [&] {
    return SearchStats{store.size(),
                       transitions,
                       depth,
                       fused,
                       store.memory_bytes(),
                       std::chrono::steady_clock::now() - start_time};
  };

  ta::SuccessorScratch scratch;       // drives the enumeration
  ta::SuccessorScratch stop_scratch;  // available to the stop predicates
  ta::State state_buf;
  ta::State test_buf;
  ta::State cur_fused;
  ta::State found_canon;
  FusedStack pending;
  std::vector<std::size_t> hits;  // live targets the tested state satisfies

  const auto test = [&](const ta::State& s) {
    hits.clear();
    for (const std::size_t k : targets.live()) {
      if (stops[k](s, stop_scratch)) hits.push_back(k);
    }
    return !hits.empty();
  };
  // Settles `hits` at this very moment, so their statistics are exactly
  // those of a search that stopped here.
  const auto settle = [&](std::uint32_t last, const ta::State* transient_hit) {
    const std::vector<TraceStep> trace =
        replay_trace(stored_chain(store, last, transient_hit), canon, por);
    targets.settle(hits, trace, stats(), /*complete=*/false);
  };

  const ta::State init = net_->initial_state();
  test_buf.assign(init.slots());
  if (canon) codec.canonicalize(test_buf.slots_mut());
  auto [init_index, inserted] = store.intern(test_buf);
  AHB_ASSERT(inserted);

  if (test(init)) {
    // The initial state already answers these queries: nothing beyond it
    // was asked for, so their trivial searches are complete, not
    // truncated.
    targets.settle(hits, {TraceStep{"", init}}, stats(), /*complete=*/true);
    if (targets.all_settled()) return targets.finish(stats(), true);
  }

  // BFS layer by layer so `depth` is exact and depth limits are honest.
  enum class Outcome { kRunning, kSettled, kLimit };
  std::deque<std::uint32_t> frontier{init_index};
  while (!frontier.empty()) {
    if (limits.max_depth != 0 && depth >= limits.max_depth) {
      return targets.finish(stats(), false);
    }
    ++depth;
    std::deque<std::uint32_t> next_frontier;
    for (const std::uint32_t index : frontier) {
      store.load(index, state_buf);
      Outcome outcome = Outcome::kRunning;

      const auto on_target = [&](std::span<const ta::Slot> target,
                                 std::uint32_t fuse_depth) -> bool {
        ++transitions;
        // Checked before interning so the store never exceeds
        // limits.max_states, no matter the remaining fan-out.
        if (store.size() >= limits.max_states) {
          outcome = Outcome::kLimit;
          return false;
        }
        // Unreduced searches intern the successor span directly and copy
        // it out only when it is new.
        std::span<const ta::Slot> key = target;
        if (canon || por) {
          test_buf.assign(target);
          if (por && fuse_depth < kFusionDepthCap &&
              net_->committed_location_active(test_buf)) {
            // Transient: evaluate the predicates (fusion must not skip
            // error states), then expand through it without interning.
            if (test(test_buf)) {
              found_canon.assign(target);
              if (canon) codec.canonicalize(found_canon.slots_mut());
              settle(index, &found_canon);
              if (targets.all_settled()) {
                outcome = Outcome::kSettled;
                return false;
              }
            }
            ++fused;
            pending.push(target, fuse_depth + 1);
            return true;
          }
          if (canon) codec.canonicalize(test_buf.slots_mut());
          key = test_buf.slots();
        }
        auto [child, is_new] = store.intern(key, index);
        if (!is_new) return true;
        if (!canon && !por) test_buf.assign(target);
        if (test(test_buf)) {
          settle(child, nullptr);
          if (targets.all_settled()) {
            outcome = Outcome::kSettled;
            return false;
          }
        }
        next_frontier.push_back(child);
        return true;
      };
      const auto expand = [&](const ta::State& s, std::uint32_t fuse_depth) {
        for_each_successor(*net_, por, s, scratch,
                           [&](const ta::SuccessorView& v) {
                             return on_target(v.target, fuse_depth);
                           });
      };

      pending.clear();
      expand(state_buf, 0);
      while (outcome == Outcome::kRunning && !pending.empty()) {
        const std::uint32_t fuse_depth = pending.pop(cur_fused);
        expand(cur_fused, fuse_depth);
      }
      if (outcome != Outcome::kRunning) return targets.finish(stats(), false);
    }
    frontier = std::move(next_frontier);
  }
  return targets.finish(stats(), true);
}

std::vector<SearchResult> Explorer::bfs_parallel(
    std::span<const StopFn> stops, const SearchLimits& limits,
    unsigned threads) {
  const auto start_time = std::chrono::steady_clock::now();
  const ta::StateCodec& codec = net_->codec();
  ConcurrentStateStore store{codec, limits.compression};
  const bool canon = limits.symmetry == ta::Symmetry::Participants &&
                     codec.has_canonicalization();
  const bool por = limits.por;
  std::uint64_t depth = 0;

  // A worker's best hit of the current layer for one target.
  struct Hit {
    bool found = false;
    bool transient = false;
    std::uint32_t index = 0;   ///< interned hit
    std::uint32_t parent = 0;  ///< stored ancestor of a transient hit
    ta::State image;           ///< canonical image of the hit
  };
  // Per-worker state: scratches, reusable state buffers, the fused
  // worklist, the next-layer indices it discovered, and its best hit of
  // the current layer per target. Which worker finds which hit depends
  // on scheduling; the per-layer lexicographic minimum over canonical
  // images does not, so verdicts, state counts and depths stay
  // thread-count-invariant (the replayed trace path through a fused gap
  // may differ between runs).
  struct Worker {
    ta::SuccessorScratch scratch;
    ta::SuccessorScratch stop_scratch;
    ta::State state_buf;
    ta::State test_buf;
    ta::State cur_fused;
    ta::State hit_canon;
    FusedStack pending;
    std::vector<std::uint32_t> next;
    std::uint64_t transitions = 0;
    std::uint64_t fused = 0;
    std::vector<Hit> hits;
  };
  std::vector<Worker> workers(threads);
  for (auto& w : workers) w.hits.resize(stops.size());

  // Read by the workers during a layer and changed by the main thread
  // only between layers; the layer barriers order the two.
  Targets targets{stops.size()};
  // Valid while the workers wait at a barrier (or have exited).
  const auto stats = [&] {
    SearchStats s{store.size(), 0, depth, 0, store.memory_bytes(),
                  std::chrono::steady_clock::now() - start_time};
    for (const auto& w : workers) {
      s.transitions += w.transitions;
      s.fused += w.fused;
    }
    return s;
  };

  const ta::State init = net_->initial_state();
  workers[0].test_buf.assign(init.slots());
  if (canon) codec.canonicalize(workers[0].test_buf.slots_mut());
  auto [init_index, inserted] =
      store.intern(workers[0].test_buf, ConcurrentStateStore::kInvalidIndex);
  AHB_ASSERT(inserted);

  std::vector<std::size_t> init_hits;
  for (const std::size_t k : targets.live()) {
    if (stops[k](init, workers[0].stop_scratch)) init_hits.push_back(k);
  }
  if (!init_hits.empty()) {
    targets.settle(init_hits, {TraceStep{"", init}}, stats(),
                   /*complete=*/true);
    if (targets.all_settled()) return targets.finish(stats(), true);
  }

  // Layer-synchronous BFS. Each layer, workers claim frontier chunks via
  // an atomic cursor, expand them through the allocation-free successor
  // API, and intern children (with parent links) into the sharded store.
  // A target hit never changes what a layer explores — hit states are
  // expanded and enter the next frontier like any other — so the set of
  // states discovered per layer, and with it every verdict, depth,
  // counterexample length and per-target statistic, is independent of
  // scheduling and of the other targets.
  std::vector<std::uint32_t> frontier{init_index};
  std::vector<std::uint32_t> next_frontier;
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> limit_hit{false};
  std::atomic<bool> done{false};
  std::size_t chunk = 1;
  std::barrier<> sync(static_cast<std::ptrdiff_t>(threads));

  const auto expand = [&](Worker& w) {
    // Records `s` as a hit of every live target it satisfies. `s` is the
    // canonical image for an interned hit and the raw state for a
    // transient one, canonicalized here only if some target holds.
    const auto test = [&](const ta::State& s, bool transient,
                          std::uint32_t hit_index,
                          std::uint32_t parent_index) {
      const ta::State* image = transient ? nullptr : &s;
      for (const std::size_t k : targets.live()) {
        if (!stops[k](s, w.stop_scratch)) continue;
        if (image == nullptr) {
          w.hit_canon.assign(s.slots());
          if (canon) codec.canonicalize(w.hit_canon.slots_mut());
          image = &w.hit_canon;
        }
        Hit& h = w.hits[k];
        if (!h.found || lex_less(image->slots(), h.image.slots())) {
          h.found = true;
          h.transient = transient;
          h.index = hit_index;
          h.parent = parent_index;
          h.image.assign(image->slots());
        }
      }
    };
    while (!limit_hit.load(std::memory_order_relaxed)) {
      const std::size_t begin =
          cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= frontier.size()) return;
      const std::size_t end = std::min(begin + chunk, frontier.size());
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t index = frontier[i];
        // Frontier states were published before the previous layer
        // barrier, so the lock-free decode is ordered.
        store.load(index, w.state_buf);

        const auto on_target = [&](std::span<const ta::Slot> target,
                                   std::uint32_t fuse_depth) -> bool {
          ++w.transitions;
          if (store.size() >= limits.max_states) {
            limit_hit.store(true, std::memory_order_relaxed);
            return false;
          }
          std::span<const ta::Slot> key = target;
          if (canon || por) {
            w.test_buf.assign(target);
            if (por && fuse_depth < kFusionDepthCap &&
                net_->committed_location_active(w.test_buf)) {
              test(w.test_buf, /*transient=*/true, 0, index);
              ++w.fused;
              w.pending.push(target, fuse_depth + 1);
              return true;
            }
            if (canon) codec.canonicalize(w.test_buf.slots_mut());
            key = w.test_buf.slots();
          }
          auto [child, is_new] = store.intern(key, index);
          if (!is_new) return true;
          if (!canon && !por) w.test_buf.assign(target);
          test(w.test_buf, /*transient=*/false, child, index);
          w.next.push_back(child);
          return true;
        };
        const auto expand_one = [&](const ta::State& s,
                                    std::uint32_t fuse_depth) {
          for_each_successor(*net_, por, s, w.scratch,
                             [&](const ta::SuccessorView& v) {
                               return on_target(v.target, fuse_depth);
                             });
        };

        w.pending.clear();
        expand_one(w.state_buf, 0);
        while (!limit_hit.load(std::memory_order_relaxed) &&
               !w.pending.empty()) {
          const std::uint32_t fuse_depth = w.pending.pop(w.cur_fused);
          expand_one(w.cur_fused, fuse_depth);
        }
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) {
    pool.emplace_back([&, t] {
      while (true) {
        sync.arrive_and_wait();  // layer start (or shutdown)
        if (done.load(std::memory_order_relaxed)) return;
        expand(workers[t]);
        sync.arrive_and_wait();  // layer end
      }
    });
  }

  // Settles every live target hit in the layer just finished, each with
  // its lexicographically smallest hit and the statistics of the whole
  // layer.
  const auto settle_layer = [&] {
    const std::vector<std::size_t> live(targets.live().begin(),
                                        targets.live().end());
    for (const std::size_t k : live) {
      const Hit* best = nullptr;
      for (const auto& w : workers) {
        const Hit& h = w.hits[k];
        if (h.found && (best == nullptr ||
                        lex_less(h.image.slots(), best->image.slots()))) {
          best = &h;
        }
      }
      if (best == nullptr) continue;
      const std::vector<TraceStep> trace = replay_trace(
          stored_chain(store, best->transient ? best->parent : best->index,
                       best->transient ? &best->image : nullptr),
          canon, por);
      targets.settle(std::span{&k, 1}, trace, stats(), /*complete=*/false);
    }
  };

  bool complete = false;
  while (true) {
    if (limit_hit.load(std::memory_order_relaxed)) break;
    if (frontier.empty()) {
      complete = true;
      break;
    }
    if (limits.max_depth != 0 && depth >= limits.max_depth) break;
    ++depth;
    cursor.store(0, std::memory_order_relaxed);
    chunk = std::clamp<std::size_t>(
        frontier.size() / (static_cast<std::size_t>(threads) * 8), 1, 1024);
    sync.arrive_and_wait();  // release the layer
    expand(workers[0]);
    sync.arrive_and_wait();  // wait for stragglers

    settle_layer();
    if (targets.all_settled()) break;
    next_frontier.clear();
    for (auto& w : workers) {
      next_frontier.insert(next_frontier.end(), w.next.begin(), w.next.end());
      w.next.clear();
    }
    frontier.swap(next_frontier);
  }

  done.store(true, std::memory_order_relaxed);
  sync.arrive_and_wait();  // let the pool observe `done` and exit
  for (auto& t : pool) t.join();
  return targets.finish(stats(), complete);
}

SearchResult Explorer::reach(const Pred& target, const SearchLimits& limits) {
  return std::move(reach(std::span{&target, 1}, limits).front());
}

std::vector<SearchResult> Explorer::reach(std::span<const Pred> targets,
                                          const SearchLimits& limits) {
  std::vector<StopFn> stops;
  stops.reserve(targets.size());
  for (const Pred& target : targets) {
    AHB_EXPECTS(target != nullptr);
    stops.emplace_back([this, &target](const ta::State& s,
                                       ta::SuccessorScratch&) {
      return target(ta::StateView{*net_, s});
    });
  }
  return run(stops, limits);
}

SearchResult Explorer::find_deadlock(const SearchLimits& limits) {
  const StopFn deadlocked = [&](const ta::State& s,
                                ta::SuccessorScratch& scratch) {
    return !net_->has_successor(s, scratch);
  };
  return std::move(run(std::span{&deadlocked, 1}, limits).front());
}

SearchStats Explorer::explore_all(const SearchLimits& limits) {
  const StopFn never = [](const ta::State&, ta::SuccessorScratch&) {
    return false;
  };
  return run(std::span{&never, 1}, limits).front().stats;
}

SearchResult Explorer::check_invariant(const Pred& invariant,
                                       const SearchLimits& limits) {
  AHB_EXPECTS(invariant != nullptr);
  const StopFn violated = [&](const ta::State& s, ta::SuccessorScratch&) {
    return !invariant(ta::StateView{*net_, s});
  };
  return std::move(run(std::span{&violated, 1}, limits).front());
}

std::vector<TraceStep> Explorer::replay_trace(
    const std::vector<ta::State>& chain, bool canon, bool por) const {
  std::vector<TraceStep> trace;
  if (chain.empty()) return trace;
  const ta::StateCodec& codec = net_->codec();
  ta::SuccessorScratch scratch;
  ta::State canon_buf;
  const auto matches = [&](std::span<const ta::Slot> real,
                           const ta::State& image) {
    canon_buf.assign(real);
    if (canon) codec.canonicalize(canon_buf.slots_mut());
    return std::ranges::equal(canon_buf.slots(), image.slots());
  };

  // Replay starts from the *real* initial state, whose canonical image
  // is chain[0]; every appended state is then a real successor, so
  // participant ids in the rendered trace are genuine. Unreduced, each
  // step is simply the first successor equal to the next stored state.
  trace.push_back(TraceStep{"", net_->initial_state()});

  // Per stored step, a bounded DFS over real successors: match directly
  // first (shortest extension), then descend through transient states —
  // fusion only ever skipped transients, so gaps close within the
  // fusion depth cap. The transient successors are copied out of the
  // scratch before the descent reuses it.
  const std::uint32_t budget0 = 1 + (por ? kFusionDepthCap : 0);
  const auto extend = [&](auto&& self, const ta::State& from,
                          const ta::State& image,
                          std::uint32_t budget) -> bool {
    if (budget == 0) return false;
    bool found = false;
    std::vector<TraceStep> transients;
    net_->for_each_successor(from, scratch, [&](const ta::SuccessorView& v) {
      if (matches(v.target, image)) {
        trace.push_back(TraceStep{net_->label_of(v), ta::State{v.target}});
        found = true;
        return false;
      }
      if (por) {
        ta::State target{v.target};
        if (net_->committed_location_active(target)) {
          transients.push_back(TraceStep{net_->label_of(v), std::move(target)});
        }
      }
      return true;
    });
    if (found) return true;
    for (const auto& step : transients) {
      trace.push_back(step);
      if (self(self, step.state, image, budget - 1)) return true;
      trace.pop_back();
    }
    return false;
  };

  for (std::size_t i = 1; i < chain.size(); ++i) {
    // Copy: extend() grows `trace`, which would invalidate a reference
    // into it.
    const ta::State cur = trace.back().state;
    if (!extend(extend, cur, chain[i], budget0)) {
      // Unreachable when the model honors the equivariance contract;
      // keep the canonical image so a broken trace stays inspectable.
      trace.push_back(TraceStep{"<unreplayed>", chain[i]});
    }
  }
  return trace;
}

}  // namespace ahb::mc
