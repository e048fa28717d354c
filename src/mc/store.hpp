// Compact interned storage for explored states: the one intern core of
// the model checker.
//
// States are fixed-stride slot vectors, so the store keeps their entries
// in a segmented arena (index -> segment, offset within it) plus an
// open-addressing hash table mapping entry bytes to indices. This
// matters: proving a requirement *holds* means exhausting the reachable
// state space. Arena segments double in size and never move once
// allocated, so growth copies nothing and a published entry stays where
// it is: raw() spans and lock-free load() calls of the sharded
// ConcurrentStateStore (64 of these, each behind a mutex) rely on it.
//
// Two encodings (ta::Compression), fixed at construction:
//  - None: raw Slot vectors + a per-entry 64-bit hash (raw() spans stay
//    available).
//  - Collapse: each automaton's local sub-vector is interned once in a
//    per-component table and the arena keeps only the tuple of component
//    indices plus the packed residue (clocks, shared variables).
// Collapse drops the per-entry hash array as well — probes memcmp the
// (short) encoded entries and table growth rehashes them — which is
// where much of the footprint reduction comes from.
//
// Identity is preserved in both modes: two slot vectors intern to the
// same index iff they are equal, so state counts, verdicts and trace
// lengths are invariant under compression.
//
// Every state records the BFS parent it was interned with, so
// counterexamples are rebuilt from the store alone (parent_of).
//
// Thread-safety: intern() needs exclusive access (it uses member encode
// buffers). raw(), get(), load(), parent_of() and size() may run
// concurrently with intern() for indices published before a
// synchronization point; they touch no member scratch.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "ta/codec.hpp"
#include "ta/state.hpp"

namespace ahb::mc {

class StateStore {
 public:
  static constexpr std::uint32_t kInvalidIndex = 0xffffffffu;
  /// Every 32-bit index but kInvalidIndex names a state.
  static constexpr std::uint64_t kMaxStates = kInvalidIndex;

  // Arena geometry: segment 0 holds kSeg0Entries entries, segment k >= 1
  // holds 2^(kSeg0Bits + k - 1), so capacity doubles, the allocation
  // stays within 2x of what is used, and the segments cover every
  // 32-bit offset. Segment 0 is small because every shard of a
  // concurrent store allocates one per arena (states, parents and each
  // component's keys), even when it holds a handful of states.
  static constexpr int kSeg0Bits = 6;
  static constexpr std::uint32_t kSeg0Entries = 1u << kSeg0Bits;
  static constexpr int kMaxSegments = 32 - kSeg0Bits + 1;

  /// (segment, entry within it) of an arena offset.
  static constexpr std::pair<int, std::uint32_t> segment_of(
      std::uint32_t offset) {
    const int seg = std::bit_width(offset >> kSeg0Bits);
    return {seg, offset - (seg == 0 ? 0u : kSeg0Entries << (seg - 1))};
  }
  /// Entries that segment `seg` holds.
  static constexpr std::uint64_t segment_entries(int seg) {
    return seg == 0 ? kSeg0Entries : std::uint64_t{kSeg0Entries}
                                         << (seg - 1);
  }

  /// Uncompressed store over raw slot vectors (Compression::None).
  explicit StateStore(std::size_t stride);

  /// Codec-backed store; `codec` must outlive the store (it lives in the
  /// frozen Network). Compression::None behaves exactly like the
  /// stride-only constructor.
  StateStore(const ta::StateCodec& codec, ta::Compression mode);

  /// Interns `slots` (e.g. a SuccessorView target); returns its index
  /// and whether it was newly inserted. A new state records `parent` as
  /// its BFS predecessor.
  std::pair<std::uint32_t, bool> intern(std::span<const ta::Slot> slots,
                                        std::uint32_t parent = kInvalidIndex);
  std::pair<std::uint32_t, bool> intern(const ta::State& s,
                                        std::uint32_t parent = kInvalidIndex) {
    return intern(s.slots(), parent);
  }

  /// intern() for a caller that already holds `slot_hash`, which must be
  /// hash_span(slots); None mode probes with it, Collapse ignores it.
  std::pair<std::uint32_t, bool> intern_hashed(std::span<const ta::Slot> slots,
                                               std::uint64_t slot_hash,
                                               std::uint32_t parent);

  /// Reconstructs a State value from an index.
  ta::State get(std::uint32_t index) const;

  /// Decodes an interned state into `out` (resized if needed). The
  /// compression-agnostic way to read states back; hot loops reuse
  /// `out`'s buffer.
  void load(std::uint32_t index, ta::State& out) const;

  /// Borrowed slot span of an interned state; it stays valid for the
  /// store's lifetime. Only available in Compression::None, where states
  /// are stored unencoded.
  std::span<const ta::Slot> raw(std::uint32_t index) const;

  /// BFS predecessor recorded when `index` was interned.
  std::uint32_t parent_of(std::uint32_t index) const;

  std::size_t size() const { return count_.load(std::memory_order_relaxed); }
  std::size_t stride() const { return stride_; }
  ta::Compression compression() const { return mode_; }

  /// Approximate heap footprint in bytes (arenas + table + hashes +
  /// component tables). Only valid while no intern() is in flight.
  std::size_t memory_bytes() const;

 private:
  /// Fixed-size-entry segmented byte arena (never-moving segments).
  struct Arena {
    std::size_t entry_bytes = 0;
    std::array<std::unique_ptr<std::byte[]>, kMaxSegments> segments;
    /// Per segment, the address its offset 0 would have if it started at
    /// arena offset 0: entry() adds offset * entry_bytes to it, so the
    /// multiply runs beside this load rather than after it.
    std::array<std::uintptr_t, kMaxSegments> origins{};
    std::size_t allocated_bytes = 0;

    const std::byte* entry(std::uint32_t offset) const;
    /// Returns the slot for `offset`, allocating its segment if needed.
    std::byte* ensure(std::uint32_t offset);
  };

  /// Per-component intern table (Collapse mode). Components whose packed
  /// key fits 64 bits (all of them in the heartbeat models) use the fast
  /// path: the key is stored inline in the probe slot, so a lookup is one
  /// multiply-shift hash plus uint64 compares — no byte packing, no
  /// memcmp, no second cache line — and `keys` holds it as an 8-byte
  /// entry for decoding. Wider components spill to the byte path
  /// (key_bytes-sized entries, open addressing over hashes).
  struct CompTable {
    struct FastSlot {
      std::uint64_t key = 0;
      std::uint32_t index = kInvalidIndex;  ///< kInvalidIndex = empty
    };
    Arena keys;                         ///< key by index
    std::vector<FastSlot> fast_table;   ///< fast path: probe slots
    std::vector<std::uint32_t> table;   ///< spill path: probe slots
    std::uint32_t count = 0;
  };

  void grow_table();
  /// Table hash of an encoded entry (Collapse): the inline-key
  /// mix when the root takes the fast path, the byte hash otherwise.
  std::uint64_t entry_hash(const std::byte* entry) const;
  std::uint32_t probe(std::span<const std::byte> entry, std::uint64_t hash,
                      bool& found) const;
  std::uint32_t comp_intern(std::size_t c, std::span<const std::byte> key);
  std::uint32_t comp_intern_fast(std::size_t c, std::uint64_t key);

  /// Encodes `slots` into entry_scratch_ as a Collapse root, interning
  /// components, and returns the table hash of the entry.
  std::uint64_t encode_entry(std::span<const ta::Slot> slots);

  const ta::StateCodec* codec_ = nullptr;
  ta::Compression mode_ = ta::Compression::None;
  std::size_t stride_;
  std::size_t entry_bytes_ = 0;  ///< bytes per state in `arena_`
  /// Collapse roots of <= 64 bits are stored as inline uint64 keys
  /// (entry_bytes_ == 8): packing is shift/or arithmetic and the table
  /// hash is a multiply-shift mix instead of a byte-wise pass — this is
  /// what keeps collapse wall-time within ~1.1x of the raw store.
  bool root_fast_ = false;

  Arena arena_;                        // entry_bytes_ per state
  Arena parents_;                      // one uint32_t per state
  std::vector<std::uint64_t> hashes_;  // None: per interned state
  std::vector<CompTable> comps_;       // Collapse: per-component tables
  std::vector<std::uint32_t> table_;   // open addressing, power-of-two size
  /// Written only by intern(); atomic so that concurrent readers of
  /// published states may bounds-check against it.
  std::atomic<std::size_t> count_{0};

  // Encode buffers of intern(); decoding uses none, so that load() may
  // run concurrently with it.
  std::vector<std::byte> entry_scratch_;
  std::vector<std::byte> key_scratch_;
  std::vector<std::uint32_t> index_scratch_;
};

}  // namespace ahb::mc
