// Sharded, thread-safe interned storage for parallel state-space
// exploration.
//
// The store is 64 StateStores ("shards"), each behind its own mutex. A
// state's shard is chosen by the top bits of the hash of its raw slot
// bytes — a shard-independent image of the state, taken before any
// shard-local encoding; None mode reuses that hash as the shard's probe
// hash (whose low bits it uses, so the two are independent). Collapse
// states are encoded against the component tables of their own shard. A
// global 32-bit index encodes [shard:6][offset:26], so each shard holds
// at most 2^26 - 1 states (one below 2^26 so no valid index collides
// with kInvalidIndex); everything else — encodings, arenas, parent
// links, memory accounting — is StateStore's.
//
// Because shard arenas never move, concurrent readers may decode states
// of *earlier BFS layers* without locking while other threads intern new
// states into the same shard.
//
// Parent links for shortest-counterexample reconstruction are recorded
// at intern time, under the shard lock: the first thread to intern a
// state wins, so every parent pointer refers to a state of the previous
// BFS layer and trace lengths stay deterministic.
//
// Thread-safety contract:
//  - intern() may be called concurrently from any number of threads.
//  - raw()/get()/load()/parent_of() may be called concurrently with
//    intern() only for indices published before a synchronization point
//    (the explorer's per-layer barrier provides it).
//  - size() is an atomic running count, safe anywhere.
//  - memory_bytes() must only be called while no intern() is in flight.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>

#include "mc/store.hpp"

namespace ahb::mc {

class ConcurrentStateStore {
 public:
  static constexpr std::uint32_t kInvalidIndex = StateStore::kInvalidIndex;
  static constexpr int kShardBits = 6;
  static constexpr std::uint32_t kShardCount = 1u << kShardBits;
  static constexpr int kOffsetBits = 32 - kShardBits;
  static constexpr std::uint32_t kMaxPerShard = (1u << kOffsetBits) - 1;

  /// Uncompressed store over raw slot vectors (Compression::None).
  explicit ConcurrentStateStore(std::size_t stride);

  /// Codec-backed store; `codec` must outlive the store. None behaves
  /// exactly like the stride-only constructor.
  ConcurrentStateStore(const ta::StateCodec& codec, ta::Compression mode);

  /// Interns `slots`; returns the global index and whether this call
  /// inserted it. For new states, `parent` is recorded as the BFS
  /// predecessor (first inserter wins).
  std::pair<std::uint32_t, bool> intern(std::span<const ta::Slot> slots,
                                        std::uint32_t parent = kInvalidIndex);
  std::pair<std::uint32_t, bool> intern(const ta::State& s,
                                        std::uint32_t parent = kInvalidIndex) {
    return intern(s.slots(), parent);
  }

  /// Raw slot span of an interned state. Only available in
  /// Compression::None.
  std::span<const ta::Slot> raw(std::uint32_t index) const {
    return shard(index).raw(index & kMaxPerShard);
  }

  /// Reconstructs a State value from a global index.
  ta::State get(std::uint32_t index) const {
    return shard(index).get(index & kMaxPerShard);
  }

  /// Decodes an interned state into `out` (resized if needed).
  void load(std::uint32_t index, ta::State& out) const {
    shard(index).load(index & kMaxPerShard, out);
  }

  /// BFS predecessor recorded when `index` was interned.
  std::uint32_t parent_of(std::uint32_t index) const {
    return shard(index).parent_of(index & kMaxPerShard);
  }

  /// Number of interned states (atomic running count).
  std::size_t size() const { return total_.load(std::memory_order_relaxed); }

  /// Sum of the shards' StateStore::memory_bytes(). Only valid while no
  /// intern() is in flight.
  std::size_t memory_bytes() const;

 private:
  struct alignas(64) Shard {
    template <typename... Args>
    explicit Shard(const Args&... args) : store(args...) {}
    std::mutex mu;
    StateStore store;  ///< intern() under mu; reads per the contract above
  };

  const StateStore& shard(std::uint32_t index) const {
    return shards_[index >> kOffsetBits]->store;
  }

  std::atomic<std::size_t> total_{0};
  std::array<std::unique_ptr<Shard>, kShardCount> shards_;
};

}  // namespace ahb::mc
