// Compressed state encoding for the explorer's stores (SPIN-style).
//
// A frozen Network knows the exact value range of every slot: location
// slots range over [0, #locations-1], clocks saturate at their cap, and
// variables carry a declared range (defaulting to the full Slot range
// when unannotated). Every slot therefore has a bit-field of its actual
// width (booleans 1 bit, clocks ceil(log2(cap+1)) bits, constant slots
// none), and the StateCodec builds the collapse encoding from those
// fields:
//
//  - Collapse (after SPIN's COLLAPSE mode): each automaton's local
//    sub-vector — its location slot plus the variables declared as owned
//    by it — is interned once in a small per-component table; the global
//    store keeps only the tuple of component indices plus the bit-packed
//    residue (clocks and unowned variables). Component index fields are
//    sized by the product of the member ranges, capped at 32 bits: for
//    small automata the index is no wider than the packed members, and
//    for large ones (many owned variables) the 32-bit cap is where
//    collapse beats plain packing.
//
// The encoding is a deterministic function of the frozen layout, so
// state identity — and therefore reachable-state counts, verdicts and
// counterexample lengths — is invariant under compression.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ta/ids.hpp"

namespace ahb::ta {

/// Store encoding selected via mc::SearchLimits::compression.
enum class Compression : std::uint8_t { None, Collapse };

const char* to_string(Compression mode);

/// Orbit canonicalization selected via mc::SearchLimits::symmetry.
/// `Participants` sorts the network's declared symmetric participant
/// blocks (and resets declared dead slots) before interning, so each
/// orbit of the participant-permutation group is represented once.
/// Requires the model's predicates to be permutation-invariant.
enum class Symmetry : std::uint8_t { None, Participants };

const char* to_string(Symmetry mode);

class StateCodec {
 public:
  /// Bit-field of one slot. width == 0 means the slot is constant
  /// (single-valued range): it occupies no bits and decodes to `base`.
  struct Field {
    Slot base = 0;           ///< minimum representable value
    std::uint8_t width = 0;  ///< bits used; values encode as value-base
  };

  /// One COLLAPSE component: an automaton's location slot plus its
  /// owned variables, interned as a packed key of `key_bytes` bytes.
  /// Components with key_bits <= 64 take the stores' inline fast path
  /// (pack_component_key), wider ones spill to byte-array keys.
  struct Component {
    std::vector<std::uint32_t> slots;  ///< member slot indices, ascending
    std::size_t key_bytes = 0;         ///< packed size of the member slots
    std::size_t key_bits = 0;          ///< total member field width
    std::uint8_t index_bits = 0;       ///< root index field width (0 =>
                                       ///< single-valued, nothing stored)
  };

  /// Incrementally describes the frozen slot layout, in slot order
  /// (locations, then variables, then clocks). Used by Network::freeze.
  class Builder {
   public:
    void add_location_slot(int location_count);
    /// owner < 0 leaves the variable in the root residue (shared).
    void add_var_slot(int min, int max, int owner);
    void add_clock_slot(int cap);
    StateCodec build() &&;

   private:
    struct SlotDecl {
      Slot min = 0;
      Slot max = 0;
      int owner = -1;  ///< owning automaton for location/owned-var slots
    };
    std::vector<SlotDecl> decls_;
    std::size_t location_slots_ = 0;
    bool vars_started_ = false;
  };

  StateCodec() = default;

  std::size_t slot_count() const { return fields_.size(); }
  const Field& field(std::size_t slot) const { return fields_[slot]; }

  // ---- COLLAPSE partition (Collapse mode) ----

  std::size_t component_count() const { return components_.size(); }
  const Component& component(std::size_t c) const { return components_[c]; }

  void pack_component(std::size_t c, std::span<const Slot> state,
                      std::byte* out) const;
  void unpack_component(std::size_t c, const std::byte* in,
                        std::span<Slot> state) const;

  /// Inline component key for the stores' open-addressing fast path.
  /// Only valid when component(c).key_bits <= 64; injective over the
  /// member slots, so a uint64 compare replaces the byte-array memcmp.
  std::uint64_t pack_component_key(std::size_t c,
                                   std::span<const Slot> state) const;
  void unpack_component_key(std::size_t c, std::uint64_t key,
                            std::span<Slot> state) const;

  /// Collapse root: one index field per non-constant component, then the
  /// bit-packed residue slots (clocks and unowned variables).
  std::size_t root_bytes() const { return root_bytes_; }
  std::size_t root_bits() const { return root_bits_; }
  const std::vector<std::uint32_t>& residue_slots() const {
    return residue_slots_;
  }

  /// `indices[c]` is ignored for components with index_bits == 0.
  void pack_root(std::span<const std::uint32_t> indices,
                 std::span<const Slot> state, std::byte* out) const;
  /// Fills `indices` (0 for constant components) and the residue slots
  /// of `state`; component member slots are left untouched.
  void unpack_root(const std::byte* in, std::span<std::uint32_t> indices,
                   std::span<Slot> state) const;

  /// Inline root key for the stores' open-addressing fast path. Only
  /// valid when root_bits() <= 64 (true for the heartbeat models up to
  /// several participants); injective over (indices, residue slots), so
  /// interning a state is pure shift/or arithmetic plus uint64 compares
  /// — no bit-window memcpys, no byte-wise hash.
  std::uint64_t pack_root_key(std::span<const std::uint32_t> indices,
                              std::span<const Slot> state) const;
  void unpack_root_key(std::uint64_t key, std::span<std::uint32_t> indices,
                       std::span<Slot> state) const;

  // ---- orbit canonicalization (Symmetry::Participants) ----
  //
  // The network declares, at freeze() time, a list of congruent
  // symmetric blocks (one per participant: its automata's location
  // slots, owned variables and clocks, all in the same role order) plus
  // dead-slot rules (slots whose value is unreadable while an automaton
  // occupies a given location). canonicalize() first resets dead slots
  // to their rule value, then sorts the blocks into lexicographic
  // order, yielding one representative per orbit of the product of the
  // participant-permutation group with the dead-value groups. Sound for
  // exploration whenever the model is equivariant (congruent blocks,
  // permutation-invariant shared guards/predicates) and the dead rules
  // are true deadness (value never read before being rewritten).

  /// Declares the symmetric blocks: `block_slots` holds `block_count`
  /// consecutive groups of `stride` slot indices; position k of every
  /// block must have an identical Field (congruence is asserted).
  void set_symmetry(std::size_t stride,
                    std::vector<std::uint32_t> block_slots);

  /// Declares `target_slot` dead (reset to `value`) whenever the
  /// automaton whose location lives in `loc_slot` occupies `loc_value`.
  void add_dead_rule(std::uint32_t loc_slot, Slot loc_value,
                     std::uint32_t target_slot, Slot value);

  /// True iff canonicalize() is not the identity (symmetry blocks or
  /// dead rules were declared).
  bool has_canonicalization() const {
    return sym_stride_ != 0 || !dead_rules_.empty();
  }

  std::size_t symmetry_stride() const { return sym_stride_; }
  std::size_t symmetry_block_count() const {
    return sym_stride_ == 0 ? 0 : sym_slots_.size() / sym_stride_;
  }
  /// Slot indices of block `b`, length symmetry_stride().
  std::span<const std::uint32_t> symmetry_block(std::size_t b) const {
    return std::span<const std::uint32_t>{sym_slots_}.subspan(
        b * sym_stride_, sym_stride_);
  }

  /// Rewrites `state` in place to its orbit representative: dead-slot
  /// reset, then lexicographic block sort. Idempotent; a no-op when
  /// nothing was declared.
  void canonicalize(std::span<Slot> state) const;

 private:
  friend class Builder;

  struct DeadAction {
    std::uint32_t slot = 0;
    Slot value = 0;
  };

  std::vector<Field> fields_;
  std::vector<Component> components_;
  std::vector<std::uint32_t> residue_slots_;
  std::size_t root_bits_ = 0;
  std::size_t root_bytes_ = 0;

  // Canonicalization metadata (empty unless the network declared it).
  std::size_t sym_stride_ = 0;
  std::vector<std::uint32_t> sym_slots_;  ///< block-major, blocks*stride
  /// dead_rules_[loc_slot][loc_value] -> actions; outer vectors sized
  /// on demand, so undeclared (slot, value) pairs cost one bounds check.
  std::vector<std::vector<std::vector<DeadAction>>> dead_rules_;
};

}  // namespace ahb::ta
