// Sharded, thread-safe interned storage for parallel state-space
// exploration.
//
// The store splits the open-addressing intern table of StateStore into
// 64 shards selected by the top bits of the state hash (the table probe
// uses the low bits, so the two are independent). Each shard owns a
// striped mutex, its own hash table, and a segmented byte arena whose
// segments never move once allocated — concurrent readers may therefore
// decode states of *earlier BFS layers* without locking while other
// threads intern new states into the same shard. A global 32-bit index
// encodes [shard:6][offset:26], preserving StateStore's compact
// index-addressed layout (and its memory_bytes() accounting) at a cost
// of 6 bits of per-shard capacity.
//
// Compression (ta::Compression, fixed at construction) mirrors
// StateStore: None stores raw slot bytes plus per-entry hashes, Collapse
// stores component-index roots with *per-shard* component tables. Shard
// selection hashes the raw slot bytes, a shard-independent image of the
// state, before any shard-local encoding. Collapse roots are then
// encoded and probed under the shard lock against that shard's own
// component tables, whose key arenas are segmented and never move — so
// lock-free decode of published states follows the exact same
// discipline as the state arena itself.
//
// Parent links for shortest-counterexample reconstruction are recorded
// at intern time, under the same shard lock as the insertion: the first
// thread to intern a state wins, so every parent pointer refers to a
// state of the previous BFS layer and trace lengths stay deterministic.
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
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "ta/codec.hpp"
#include "ta/state.hpp"

namespace ahb::mc {

class ConcurrentStateStore {
 public:
  static constexpr std::uint32_t kInvalidIndex = 0xffffffffu;
  static constexpr int kShardBits = 6;
  static constexpr std::uint32_t kShardCount = 1u << kShardBits;
  static constexpr int kOffsetBits = 32 - kShardBits;
  /// One below 2^26 so no valid index collides with kInvalidIndex.
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
  /// Compression::None; safe concurrently with intern() for indices
  /// published before a synchronization point.
  std::span<const ta::Slot> raw(std::uint32_t index) const;

  /// Reconstructs a State value from a global index.
  ta::State get(std::uint32_t index) const;

  /// Decodes an interned state into `out` (resized if needed). Same
  /// publication contract as raw().
  void load(std::uint32_t index, ta::State& out) const;

  /// BFS predecessor recorded when `index` was interned.
  std::uint32_t parent_of(std::uint32_t index) const;

  /// Number of interned states (atomic running count).
  std::size_t size() const { return total_.load(std::memory_order_relaxed); }
  std::size_t stride() const { return stride_; }
  ta::Compression compression() const { return mode_; }

  /// Approximate heap footprint in bytes (arenas + tables + hashes +
  /// parents + component tables). Only valid while no intern() is in
  /// flight.
  std::size_t memory_bytes() const;

 private:
  // Segmented arena: segment 0 holds kSeg0Entries entries; segment k >= 1
  // holds 2^(kSeg0Bits + k - 1), i.e. capacity doubles and the total
  // allocation stays within 2x of what is used. Offsets decompose with
  // one bit-width computation and segments never reallocate.
  static constexpr int kSeg0Bits = 10;
  static constexpr std::uint32_t kSeg0Entries = 1u << kSeg0Bits;
  static constexpr int kMaxSegments = kOffsetBits - kSeg0Bits + 1;

  /// Fixed-size-entry segmented byte arena (never-moving segments).
  struct Arena {
    std::array<std::unique_ptr<std::byte[]>, kMaxSegments> segments;
    std::size_t allocated_bytes = 0;

    const std::byte* entry(std::uint32_t offset,
                           std::size_t entry_bytes) const;
    /// Returns the slot for `offset`, allocating its segment if needed.
    std::byte* ensure(std::uint32_t offset, std::size_t entry_bytes);
  };

  /// Per-shard component intern table (Collapse): guarded by the shard
  /// mutex for writes; key reads of published entries are lock-free.
  /// Components with a <= 64-bit packed key use the fast path: probe
  /// slots hold the key inline (one multiply-shift hash, uint64
  /// compares) and `keys` stores 8-byte entries so published keys still
  /// decode lock-free out of the never-moving arena. Wider components
  /// keep the byte path (key_bytes-sized entries, hashed probes).
  struct CompShard {
    struct FastSlot {
      std::uint64_t key = 0;
      std::uint32_t index = kInvalidIndex;  ///< kInvalidIndex = empty
    };
    Arena keys;  ///< entry size: 8 (fast path) or key_bytes (spill)
    std::vector<FastSlot> fast_table;   ///< fast path, guarded by mu
    std::vector<std::uint32_t> table;   ///< spill path, guarded by mu
    std::uint32_t count = 0;
  };

  struct alignas(64) Shard {
    std::mutex mu;
    Arena arena;                         // entry_bytes_-sized states
    std::vector<std::uint64_t> hashes;   // None mode only, guarded by mu
    std::vector<std::uint32_t> parents;  // per state, guarded by mu
    std::vector<std::uint32_t> table;    // open addressing, power of two
    std::vector<CompShard> comps;        // Collapse mode only
    std::uint32_t count = 0;
  };

  static std::pair<int, std::uint32_t> segment_of(std::uint32_t offset) {
    if (offset < kSeg0Entries) return {0, offset};
    const int b = 31 - std::countl_zero(offset);
    return {b - kSeg0Bits + 1, offset - (1u << b)};
  }

  std::uint32_t probe(const Shard& shard, std::span<const std::byte> entry,
                      std::uint64_t hash, bool& found) const;
  /// Table hash of an encoded entry (Collapse): the inline-key
  /// mix when the root takes the fast path, the byte hash otherwise.
  std::uint64_t entry_hash(const std::byte* entry) const;
  void grow_table(Shard& shard);
  std::uint32_t comp_intern(Shard& shard, std::size_t c,
                            std::span<const std::byte> key);
  std::uint32_t comp_intern_fast(Shard& shard, std::size_t c,
                                 std::uint64_t key);

  /// Encodes `slots` into the caller's buffers as a Collapse root and
  /// returns its table hash. Must hold the shard lock (interns
  /// components).
  std::uint64_t encode_entry_locked(Shard& shard,
                                    std::span<const ta::Slot> slots,
                                    std::vector<std::byte>& entry,
                                    std::vector<std::uint32_t>& indices,
                                    std::vector<std::byte>& key);

  const ta::StateCodec* codec_ = nullptr;
  ta::Compression mode_ = ta::Compression::None;
  std::size_t stride_;
  std::size_t entry_bytes_ = 0;  ///< bytes per state entry in the arenas
  /// Collapse roots of <= 64 bits are stored as inline uint64 entries
  /// (entry_bytes_ == 8): shift/or packing and a multiply-shift table
  /// hash replace the bit-window memcpys and byte-wise hashing. Mirrors
  /// StateStore::root_fast_.
  bool root_fast_ = false;
  std::atomic<std::size_t> total_{0};
  std::array<Shard, kShardCount> shards_;
};

}  // namespace ahb::mc
