#include "ta/codec.hpp"

#include <bit>
#include <cstring>

#include "util/contracts.hpp"

namespace ahb::ta {

// The bit windows below memcpy through std::uint64_t and rely on byte 0
// being the least significant one.
static_assert(std::endian::native == std::endian::little,
              "StateCodec bit windows assume a little-endian target");

namespace {

/// Widest bit-field the codec emits: component indices are capped here,
/// and unannotated variables (full Slot range) need 16 < 32 bits.
constexpr unsigned kMaxFieldBits = 32;

/// ORs `width` bits of `value` into `buf` at bit offset `bit`. The
/// destination bits must be zero (buffers are zero-filled before
/// packing). width <= 32, so the shifted value fits a 64-bit window.
inline void put_bits(std::byte* buf, std::size_t bit, unsigned width,
                     std::uint64_t value) {
  if (width == 0) return;
  const std::size_t byte = bit >> 3;
  const unsigned shift = static_cast<unsigned>(bit & 7);
  const unsigned nbytes = (shift + width + 7) / 8;
  std::uint64_t window = 0;
  std::memcpy(&window, buf + byte, nbytes);
  window |= value << shift;
  std::memcpy(buf + byte, &window, nbytes);
}

inline std::uint64_t get_bits(const std::byte* buf, std::size_t bit,
                              unsigned width) {
  if (width == 0) return 0;
  const std::size_t byte = bit >> 3;
  const unsigned shift = static_cast<unsigned>(bit & 7);
  const unsigned nbytes = (shift + width + 7) / 8;
  std::uint64_t window = 0;
  std::memcpy(&window, buf + byte, nbytes);
  return (window >> shift) & ((std::uint64_t{1} << width) - 1);
}

/// value - base for a slot of field (base, width). A value outside the
/// field's range aborts: its bits would decode to another value.
inline std::uint64_t field_offset(Slot value, Slot base, unsigned width) {
  AHB_ASSERT(value >= base);
  const auto offset = static_cast<std::uint64_t>(
      static_cast<std::int32_t>(value) - static_cast<std::int32_t>(base));
  AHB_ASSERT(width == kMaxFieldBits || offset < (std::uint64_t{1} << width));
  return offset;
}

/// Bits needed to encode the range [min, max] as value-min.
inline std::uint8_t range_width(Slot min, Slot max) {
  const auto span = static_cast<std::uint32_t>(static_cast<std::int32_t>(max) -
                                               static_cast<std::int32_t>(min));
  return static_cast<std::uint8_t>(std::bit_width(span));
}

}  // namespace

const char* to_string(Compression mode) {
  switch (mode) {
    case Compression::None:
      return "none";
    case Compression::Collapse:
      return "collapse";
  }
  return "?";
}

const char* to_string(Symmetry mode) {
  switch (mode) {
    case Symmetry::None:
      return "none";
    case Symmetry::Participants:
      return "participants";
  }
  return "?";
}

// ---- Builder ----

void StateCodec::Builder::add_location_slot(int location_count) {
  AHB_EXPECTS(!vars_started_);  // locations come first in the layout
  AHB_EXPECTS(location_count >= 1);
  decls_.push_back(SlotDecl{0, static_cast<Slot>(location_count - 1),
                            static_cast<int>(location_slots_)});
  ++location_slots_;
}

void StateCodec::Builder::add_var_slot(int min, int max, int owner) {
  AHB_EXPECTS(min <= max);
  AHB_EXPECTS(owner < static_cast<int>(location_slots_));
  vars_started_ = true;
  decls_.push_back(SlotDecl{static_cast<Slot>(min), static_cast<Slot>(max),
                            owner < 0 ? -1 : owner});
}

void StateCodec::Builder::add_clock_slot(int cap) {
  AHB_EXPECTS(cap > 0);
  decls_.push_back(SlotDecl{0, static_cast<Slot>(cap), -1});
}

StateCodec StateCodec::Builder::build() && {
  StateCodec codec;
  codec.fields_.reserve(decls_.size());
  codec.components_.resize(location_slots_);
  for (std::size_t slot = 0; slot < decls_.size(); ++slot) {
    const auto& d = decls_[slot];
    codec.fields_.push_back(Field{d.min, range_width(d.min, d.max)});
    if (d.owner >= 0) {
      codec.components_[static_cast<std::size_t>(d.owner)].slots.push_back(
          static_cast<std::uint32_t>(slot));
    } else if (slot >= location_slots_) {
      codec.residue_slots_.push_back(static_cast<std::uint32_t>(slot));
    }
  }

  for (auto& comp : codec.components_) {
    std::size_t key_bits = 0;
    // Saturating product of the member range sizes: the true number of
    // distinct member tuples when it fits, else the 2^32 cap (the store
    // index space bounds real counts well below that).
    std::uint64_t product = 1;
    for (const auto slot : comp.slots) {
      key_bits += codec.fields_[slot].width;
      if (product <= (std::uint64_t{1} << kMaxFieldBits)) {
        const auto& d = decls_[slot];
        product *= static_cast<std::uint64_t>(d.max - d.min) + 1;
      }
    }
    comp.key_bytes = (key_bits + 7) / 8;
    comp.key_bits = key_bits;
    if (product > 1) {
      product = std::min(product, std::uint64_t{1} << kMaxFieldBits);
      comp.index_bits = static_cast<std::uint8_t>(
          std::min<unsigned>(std::bit_width(product - 1), kMaxFieldBits));
    }
    codec.root_bits_ += comp.index_bits;
  }
  for (const auto slot : codec.residue_slots_) {
    codec.root_bits_ += codec.fields_[slot].width;
  }
  codec.root_bytes_ = (codec.root_bits_ + 7) / 8;
  return codec;
}

// ---- components ----

void StateCodec::pack_component(std::size_t c, std::span<const Slot> state,
                                std::byte* out) const {
  const Component& comp = components_[c];
  std::memset(out, 0, comp.key_bytes);
  std::size_t bit = 0;
  for (const auto slot : comp.slots) {
    const Field& f = fields_[slot];
    put_bits(out, bit, f.width, field_offset(state[slot], f.base, f.width));
    bit += f.width;
  }
}

void StateCodec::unpack_component(std::size_t c, const std::byte* in,
                                  std::span<Slot> state) const {
  const Component& comp = components_[c];
  std::size_t bit = 0;
  for (const auto slot : comp.slots) {
    const Field& f = fields_[slot];
    state[slot] = static_cast<Slot>(static_cast<std::int32_t>(f.base) +
                                    static_cast<std::int32_t>(
                                        get_bits(in, bit, f.width)));
    bit += f.width;
  }
}

std::uint64_t StateCodec::pack_component_key(
    std::size_t c, std::span<const Slot> state) const {
  const Component& comp = components_[c];
  AHB_ASSERT(comp.key_bits <= 64);
  std::uint64_t key = 0;
  unsigned bit = 0;
  for (const auto slot : comp.slots) {
    const Field& f = fields_[slot];
    key |= field_offset(state[slot], f.base, f.width) << bit;
    bit += f.width;
  }
  return key;
}

void StateCodec::unpack_component_key(std::size_t c, std::uint64_t key,
                                      std::span<Slot> state) const {
  const Component& comp = components_[c];
  unsigned bit = 0;
  for (const auto slot : comp.slots) {
    const Field& f = fields_[slot];
    const std::uint64_t value =
        f.width == 0 ? 0
                     : (key >> bit) & ((std::uint64_t{1} << f.width) - 1);
    state[slot] = static_cast<Slot>(static_cast<std::int32_t>(f.base) +
                                    static_cast<std::int32_t>(value));
    bit += f.width;
  }
}

// ---- orbit canonicalization ----

void StateCodec::set_symmetry(std::size_t stride,
                              std::vector<std::uint32_t> block_slots) {
  AHB_EXPECTS(stride > 0);
  AHB_EXPECTS(block_slots.size() % stride == 0);
  // Congruence: corresponding slots of every block share base and width,
  // otherwise swapping block values could leave a slot out of range.
  for (std::size_t b = 1; b * stride < block_slots.size(); ++b) {
    for (std::size_t k = 0; k < stride; ++k) {
      const Field& ref = fields_[block_slots[k]];
      const Field& f = fields_[block_slots[b * stride + k]];
      AHB_EXPECTS(ref.base == f.base && ref.width == f.width);
    }
  }
  sym_stride_ = stride;
  sym_slots_ = std::move(block_slots);
}

void StateCodec::add_dead_rule(std::uint32_t loc_slot, Slot loc_value,
                               std::uint32_t target_slot, Slot value) {
  AHB_EXPECTS(loc_slot < fields_.size());
  AHB_EXPECTS(target_slot < fields_.size());
  AHB_EXPECTS(loc_value >= 0);
  const Field& f = fields_[target_slot];
  AHB_EXPECTS(value >= f.base);
  AHB_EXPECTS(f.width == kMaxFieldBits ||
              static_cast<std::uint64_t>(value - f.base) <
                  (std::uint64_t{1} << f.width));
  if (dead_rules_.size() <= loc_slot) dead_rules_.resize(loc_slot + 1);
  auto& by_loc = dead_rules_[loc_slot];
  const auto loc = static_cast<std::size_t>(loc_value);
  if (by_loc.size() <= loc) by_loc.resize(loc + 1);
  by_loc[loc].push_back(DeadAction{target_slot, value});
}

void StateCodec::canonicalize(std::span<Slot> state) const {
  // Dead-slot reset first: dead values travel with their block, so each
  // block is normalized against its own location before blocks compare.
  for (std::size_t a = 0; a < dead_rules_.size(); ++a) {
    const auto& by_loc = dead_rules_[a];
    const auto loc = static_cast<std::size_t>(state[a]);
    if (loc >= by_loc.size()) continue;
    for (const auto& act : by_loc[loc]) state[act.slot] = act.value;
  }
  if (sym_stride_ == 0) return;

  const std::size_t blocks = sym_slots_.size() / sym_stride_;
  const auto block_less = [&](std::size_t x, std::size_t y) {
    const std::uint32_t* xs = sym_slots_.data() + x * sym_stride_;
    const std::uint32_t* ys = sym_slots_.data() + y * sym_stride_;
    for (std::size_t k = 0; k < sym_stride_; ++k) {
      if (state[xs[k]] != state[ys[k]]) return state[xs[k]] < state[ys[k]];
    }
    return false;
  };
  const auto block_swap = [&](std::size_t x, std::size_t y) {
    const std::uint32_t* xs = sym_slots_.data() + x * sym_stride_;
    const std::uint32_t* ys = sym_slots_.data() + y * sym_stride_;
    for (std::size_t k = 0; k < sym_stride_; ++k) {
      std::swap(state[xs[k]], state[ys[k]]);
    }
  };
  // Insertion sort: block counts are tiny (the participant count).
  for (std::size_t i = 1; i < blocks; ++i) {
    for (std::size_t j = i; j > 0 && block_less(j, j - 1); --j) {
      block_swap(j, j - 1);
    }
  }
}

// ---- collapse root ----

void StateCodec::pack_root(std::span<const std::uint32_t> indices,
                           std::span<const Slot> state, std::byte* out) const {
  AHB_EXPECTS(indices.size() == components_.size());
  std::memset(out, 0, root_bytes_);
  std::size_t bit = 0;
  for (std::size_t c = 0; c < components_.size(); ++c) {
    const auto width = components_[c].index_bits;
    AHB_ASSERT(width == kMaxFieldBits ||
               indices[c] < (std::uint64_t{1} << width));
    put_bits(out, bit, width, indices[c]);
    bit += width;
  }
  for (const auto slot : residue_slots_) {
    const Field& f = fields_[slot];
    put_bits(out, bit, f.width, field_offset(state[slot], f.base, f.width));
    bit += f.width;
  }
}

std::uint64_t StateCodec::pack_root_key(
    std::span<const std::uint32_t> indices, std::span<const Slot> state) const {
  AHB_ASSERT(root_bits_ <= 64);
  std::uint64_t key = 0;
  unsigned bit = 0;
  for (std::size_t c = 0; c < components_.size(); ++c) {
    const auto width = components_[c].index_bits;
    AHB_ASSERT(width == kMaxFieldBits ||
               indices[c] < (std::uint64_t{1} << width));
    key |= static_cast<std::uint64_t>(indices[c]) << bit;
    bit += width;
  }
  for (const auto slot : residue_slots_) {
    const Field& f = fields_[slot];
    key |= field_offset(state[slot], f.base, f.width) << bit;
    bit += f.width;
  }
  return key;
}

void StateCodec::unpack_root_key(std::uint64_t key,
                                 std::span<std::uint32_t> indices,
                                 std::span<Slot> state) const {
  unsigned bit = 0;
  for (std::size_t c = 0; c < components_.size(); ++c) {
    const auto width = components_[c].index_bits;
    indices[c] =
        width == 0 ? 0
                   : static_cast<std::uint32_t>(
                         (key >> bit) & ((std::uint64_t{1} << width) - 1));
    bit += width;
  }
  for (const auto slot : residue_slots_) {
    const Field& f = fields_[slot];
    const std::uint64_t value =
        f.width == 0 ? 0
                     : (key >> bit) & ((std::uint64_t{1} << f.width) - 1);
    state[slot] = static_cast<Slot>(static_cast<std::int32_t>(f.base) +
                                    static_cast<std::int32_t>(value));
    bit += f.width;
  }
}

void StateCodec::unpack_root(const std::byte* in,
                             std::span<std::uint32_t> indices,
                             std::span<Slot> state) const {
  AHB_EXPECTS(indices.size() == components_.size());
  std::size_t bit = 0;
  for (std::size_t c = 0; c < components_.size(); ++c) {
    const auto width = components_[c].index_bits;
    indices[c] = static_cast<std::uint32_t>(get_bits(in, bit, width));
    bit += width;
  }
  for (const auto slot : residue_slots_) {
    const Field& f = fields_[slot];
    state[slot] = static_cast<Slot>(static_cast<std::int32_t>(f.base) +
                                    static_cast<std::int32_t>(
                                        get_bits(in, bit, f.width)));
    bit += f.width;
  }
}

}  // namespace ahb::ta
