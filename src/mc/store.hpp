// Compact interned storage for explored states.
//
// States are fixed-stride slot vectors, so the store keeps one contiguous
// arena (index * entry size) plus an open-addressing hash table mapping
// state bytes to indices. This matters: proving a requirement *holds*
// means exhausting the reachable state space.
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
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ta/codec.hpp"
#include "ta/state.hpp"

namespace ahb::mc {

class StateStore {
 public:
  static constexpr std::uint32_t kInvalidIndex = 0xffffffffu;

  /// Uncompressed store over raw slot vectors (Compression::None).
  explicit StateStore(std::size_t stride);

  /// Codec-backed store; `codec` must outlive the store (it lives in the
  /// frozen Network). Compression::None behaves exactly like the
  /// stride-only constructor.
  StateStore(const ta::StateCodec& codec, ta::Compression mode);

  /// Interns `s`; returns its index and whether it was newly inserted.
  std::pair<std::uint32_t, bool> intern(const ta::State& s);

  /// Allocation-free variant: interns a raw slot span (e.g. a
  /// SuccessorView target) without constructing a State.
  std::pair<std::uint32_t, bool> intern(std::span<const ta::Slot> slots);

  /// Index of `s` if present, kInvalidIndex otherwise. Never inserts
  /// (in Collapse mode a state whose components are unknown is absent).
  std::uint32_t find(const ta::State& s) const;

  /// Reconstructs a State value from an index.
  ta::State get(std::uint32_t index) const;

  /// Decodes an interned state into `out` (resized if needed). The
  /// compression-agnostic way to read states back; hot loops reuse
  /// `out`'s buffer.
  void load(std::uint32_t index, ta::State& out) const;

  /// Borrowed slot span of an interned state. Only available in
  /// Compression::None, where states are stored unencoded.
  std::span<const ta::Slot> raw(std::uint32_t index) const;

  std::size_t size() const { return count_; }
  std::size_t stride() const { return stride_; }
  ta::Compression compression() const { return mode_; }

  /// Approximate heap footprint in bytes (arena + table + hashes +
  /// component tables).
  std::size_t memory_bytes() const;

 private:
  /// Per-component intern table (Collapse mode). Components whose packed
  /// key fits 64 bits (all of them in the heartbeat models) use the fast
  /// path: the key is stored inline in the probe slot, so a lookup is one
  /// multiply-shift hash plus uint64 compares — no byte packing, no
  /// memcmp, no second cache line. Wider components spill to the byte
  /// path (packed keys of key_bytes each, open addressing over hashes).
  struct CompTable {
    struct FastSlot {
      std::uint64_t key = 0;
      std::uint32_t index = kInvalidIndex;  ///< kInvalidIndex = empty
    };
    std::vector<FastSlot> fast_table;       ///< fast path: probe slots
    std::vector<std::uint64_t> fast_keys;   ///< fast path: key by index
    std::vector<std::byte> keys;            ///< spill path: key by index
    std::vector<std::uint32_t> table;       ///< spill path: probe slots
    std::uint32_t count = 0;
  };

  void grow_table();
  /// Table hash of an encoded entry (Collapse): the inline-key
  /// mix when the root takes the fast path, the byte hash otherwise.
  std::uint64_t entry_hash(const std::byte* entry) const;
  std::uint32_t probe(std::span<const ta::Slot> slots, std::uint64_t hash,
                      bool& found) const;
  std::uint32_t probe_bytes(std::span<const std::byte> key,
                            std::uint64_t hash, bool& found) const;
  std::uint32_t comp_intern(std::size_t c, std::span<const std::byte> key);
  std::uint32_t comp_find(std::size_t c, std::span<const std::byte> key) const;
  std::uint32_t comp_intern_fast(std::size_t c, std::uint64_t key);
  std::uint32_t comp_find_fast(std::size_t c, std::uint64_t key) const;

  /// Encodes `slots` into entry_scratch_ as a Collapse root, interning
  /// components. With `insert_components` false, unknown components make
  /// it return false instead. Also yields the table hash of the entry.
  bool encode_entry(std::span<const ta::Slot> slots, bool insert_components,
                    std::uint64_t& hash) const;

  const std::byte* entry_of(std::uint32_t index) const {
    return bytes_.data() + static_cast<std::size_t>(index) * entry_bytes_;
  }

  const ta::StateCodec* codec_ = nullptr;
  ta::Compression mode_ = ta::Compression::None;
  std::size_t stride_;
  std::size_t entry_bytes_ = 0;  ///< bytes per state in `bytes_`
  /// Collapse roots of <= 64 bits are stored as inline uint64 keys
  /// (entry_bytes_ == 8): packing is shift/or arithmetic and the table
  /// hash is a multiply-shift mix instead of a byte-wise pass — this is
  /// what keeps collapse wall-time within ~1.1x of the raw store.
  bool root_fast_ = false;

  std::vector<ta::Slot> arena_;        // None: raw slots, index * stride
  std::vector<std::uint64_t> hashes_;  // None: per interned state
  std::vector<std::byte> bytes_;       // Collapse: encoded entries
  std::vector<CompTable> comps_;       // Collapse: per-component tables
  std::vector<std::uint32_t> table_;   // open addressing, power-of-two size
  std::size_t count_ = 0;

  // Reusable encode buffers; mutable so find() (which must not insert)
  // can share the encode path. The store is single-threaded by contract.
  mutable std::vector<std::byte> entry_scratch_;
  mutable std::vector<std::byte> key_scratch_;
  mutable std::vector<std::uint32_t> index_scratch_;
};

}  // namespace ahb::mc
