// Explicit-state reachability checking over timed-automata networks.
//
// This is the UPPAAL/CADP stand-in: breadth-first exploration of the
// digitized transition system with interned states, shortest
// counterexample reconstruction, deadlock detection and exhaustive
// exploration statistics. All the requirements checked in this
// repository (R1-R3 of the heartbeat analysis) are reachability
// properties of latched error conditions, exactly as in the source
// paper's UPPAAL formulation.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mc/concurrent_store.hpp"
#include "mc/store.hpp"
#include "ta/network.hpp"

namespace ahb::mc {

/// State predicate, e.g. "monitor is in ErrorR1 and active[0] holds".
using Pred = std::function<bool(const ta::StateView&)>;

/// Upper bound on an explicit SearchLimits::threads request.
inline constexpr unsigned kMaxThreads = 256;

struct SearchLimits {
  std::uint64_t max_states = 200'000'000;
  std::uint64_t max_depth = 0;  ///< 0 means unlimited (BFS layers)
  /// Worker threads for the BFS: 0 = hardware concurrency, 1 = the
  /// sequential loop, N = N workers (capped at kMaxThreads) over a
  /// sharded ConcurrentStateStore. Verdicts, depths and counterexample
  /// lengths are identical for every thread count; see DESIGN.md
  /// "Parallel exploration" for what is (and is not) deterministic about
  /// the statistics.
  unsigned threads = 0;
  /// Store encoding: None keeps raw slot vectors, Collapse interns each
  /// automaton's local sub-vector once (SPIN COLLAPSE) and stores the
  /// tuple of component indices. State identity is preserved, so
  /// verdicts, state counts, depths and counterexample lengths are the
  /// same in both modes; only store_bytes (and speed) changes.
  ta::Compression compression = ta::Compression::None;
  /// Orbit canonicalization: Participants interns one representative
  /// per orbit of the network's declared participant symmetry (plus
  /// dead-slot reduction). Sound for permutation-invariant predicates;
  /// verdicts are preserved while states/transitions shrink by up to
  /// the orbit sizes. No-op when the network declared no symmetry.
  ta::Symmetry symmetry = ta::Symmetry::None;
  /// Ample-set partial-order reduction + committed-chain fusion:
  /// committed (transient) states are expanded through without being
  /// interned — the target predicate is still evaluated on every one of
  /// them — and at committed states only an ample automaton's invisible
  /// records are followed. A fusion depth cap acts as the cycle
  /// proviso: chains longer than the cap intern an intermediate state,
  /// so committed cycles cannot be silently skipped.
  bool por = false;
};

struct SearchStats {
  std::uint64_t states = 0;       ///< distinct states interned
  std::uint64_t transitions = 0;  ///< transitions generated
  std::uint64_t depth = 0;        ///< deepest BFS layer reached
  std::uint64_t fused = 0;        ///< transient states expanded through
                                  ///< without interning (por only)
  std::size_t store_bytes = 0;
  /// Time from search start until the result settled: its target's
  /// first hit, or the end of the search.
  std::chrono::duration<double> elapsed{};
};

/// One step of a counterexample: the action taken to enter `state`
/// (empty for the initial state) plus the state itself.
struct TraceStep {
  std::string action;
  ta::State state;
};

struct SearchResult {
  bool found = false;     ///< target predicate reached
  bool complete = false;  ///< full state space explored (trustworthy "not found")
  std::vector<TraceStep> trace;  ///< initial state ... target, when found
  SearchStats stats;
};

class Explorer {
 public:
  explicit Explorer(const ta::Network& net);

  /// BFS for a state satisfying `target`. Returns the shortest trace when
  /// found. `result.complete` is true iff the search exhausted the state
  /// space without hitting a limit, which makes a negative answer a
  /// verification result rather than a timeout.
  SearchResult reach(const Pred& target, const SearchLimits& limits = {});

  /// One BFS for several targets. Result k equals what reach(targets[k])
  /// returns alone — found, complete, trace, and every stats field but
  /// `elapsed` — because a target *settles* at its first hit with a
  /// snapshot of the statistics at that moment, and the search goes on
  /// for the targets still unsettled. It ends when every target has
  /// settled, the space is exhausted or a limit is hit; the unsettled
  /// targets then get the final statistics. See DESIGN.md "Parallel
  /// exploration" for when each loop settles a target.
  std::vector<SearchResult> reach(std::span<const Pred> targets,
                                  const SearchLimits& limits = {});

  /// BFS for a deadlocked state: no discrete successor and no delay.
  SearchResult find_deadlock(const SearchLimits& limits = {});

  /// Explores the whole state space (or up to the limits) without a
  /// target; used for state-space measurements.
  SearchStats explore_all(const SearchLimits& limits = {});

  /// Checks that `invariant` holds in every reachable state; on failure
  /// returns the shortest trace to a violating state.
  SearchResult check_invariant(const Pred& invariant,
                               const SearchLimits& limits = {});

 private:
  /// The per-discovered-state target test. The scratch argument is a
  /// buffer distinct from the one driving the enumeration, so predicates
  /// may themselves generate successors (the deadlock test does).
  using StopFn =
      std::function<bool(const ta::State&, ta::SuccessorScratch&)>;

  /// Shared BFS entry: the sequential loop when `limits.threads`
  /// resolves to 1, the layer-synchronous parallel loop otherwise. Every
  /// search, single- or multi-target, is one of these two loops over a
  /// span of stop functions, with one result per stop function.
  /// Symmetry and POR are options of the one loop per thread mode: with
  /// both off, successors are interned as generated and nothing is
  /// fused.
  std::vector<SearchResult> run(std::span<const StopFn> stops,
                                const SearchLimits& limits);
  std::vector<SearchResult> bfs_sequential(std::span<const StopFn> stops,
                                           const SearchLimits& limits);
  std::vector<SearchResult> bfs_parallel(std::span<const StopFn> stops,
                                         const SearchLimits& limits,
                                         unsigned threads);

  /// Counterexample reconstruction: action labels are not stored during
  /// the search, so the trace is recovered by forward replay from the
  /// real initial state along the chain of stored states — per stored
  /// step, a bounded DFS over real successors (descending only through
  /// transient states under POR) finds a real path whose endpoint
  /// canonicalizes to the stored image. The first matching successor
  /// supplies the label, and the rendered states carry genuine
  /// participant ids throughout.
  std::vector<TraceStep> replay_trace(const std::vector<ta::State>& chain,
                                      bool canon, bool por) const;

  const ta::Network* net_;
};

}  // namespace ahb::mc
