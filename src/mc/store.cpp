#include "mc/store.hpp"

#include <algorithm>
#include <cstring>

#include "util/contracts.hpp"
#include "util/hash.hpp"

namespace ahb::mc {

namespace {
// Every hash table (states and components) starts small and doubles: a
// concurrent store is 64 shards and the guided-replay memo interns only
// tens of states, while even large sweeps see only hundreds of distinct
// local sub-vectors per automaton.
constexpr std::size_t kInitialTableSize = 1u << 6;

static_assert(StateStore::segment_of(StateStore::kMaxStates - 1).first <
                  StateStore::kMaxSegments,
              "the arena must hold every 32-bit index");

/// Full-avalanche mix (splitmix64 finalizer) for inline keys. The
/// store masks the *low* hash bits down to the table size, and the keys
/// are structured bit-concatenations, so a cheap multiply-only mix
/// clusters probe chains once the table outgrows the cache.
inline std::uint64_t mix_key(std::uint64_t key) {
  std::uint64_t h = key;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

// Component indices decoded by load(); per thread, because load() may
// run concurrently with intern() and with other loads.
thread_local std::vector<std::uint32_t> tl_indices;
}  // namespace

const std::byte* StateStore::Arena::entry(std::uint32_t offset) const {
  const auto seg = static_cast<std::size_t>(segment_of(offset).first);
  return reinterpret_cast<const std::byte*>(
      origins[seg] + static_cast<std::uintptr_t>(offset) * entry_bytes);
}

std::byte* StateStore::Arena::ensure(std::uint32_t offset) {
  const auto [seg, within] = segment_of(offset);
  auto& segment = segments[static_cast<std::size_t>(seg)];
  if (!segment) {
    const std::size_t bytes = segment_entries(seg) * entry_bytes;
    // Left uninitialised: pages are touched only as entries are written.
    segment = std::make_unique_for_overwrite<std::byte[]>(bytes);
    allocated_bytes += bytes;
    origins[static_cast<std::size_t>(seg)] =
        reinterpret_cast<std::uintptr_t>(segment.get()) -
        static_cast<std::uintptr_t>(offset - within) * entry_bytes;
  }
  return segment.get() + static_cast<std::size_t>(within) * entry_bytes;
}

StateStore::StateStore(std::size_t stride)
    : stride_(stride), entry_bytes_(stride * sizeof(ta::Slot)) {
  AHB_EXPECTS(stride > 0);
  arena_.entry_bytes = entry_bytes_;
  parents_.entry_bytes = sizeof(std::uint32_t);
  table_.assign(kInitialTableSize, kInvalidIndex);
}

StateStore::StateStore(const ta::StateCodec& codec, ta::Compression mode)
    : StateStore(codec.slot_count()) {
  if (mode == ta::Compression::None) return;
  codec_ = &codec;
  mode_ = mode;
  root_fast_ = codec.root_bits() <= 64;
  entry_bytes_ = root_fast_ ? sizeof(std::uint64_t) : codec.root_bytes();
  arena_.entry_bytes = entry_bytes_;
  entry_scratch_.resize(entry_bytes_);
  comps_.resize(codec.component_count());
  index_scratch_.resize(codec.component_count());
  std::size_t max_key = 0;
  for (std::size_t c = 0; c < codec.component_count(); ++c) {
    if (codec.component(c).index_bits == 0) continue;
    if (codec.component(c).key_bits <= 64) {
      comps_[c].keys.entry_bytes = sizeof(std::uint64_t);
      comps_[c].fast_table.assign(kInitialTableSize,
                                  CompTable::FastSlot{});
    } else {
      comps_[c].keys.entry_bytes = codec.component(c).key_bytes;
      comps_[c].table.assign(kInitialTableSize, kInvalidIndex);
      max_key = std::max(max_key, codec.component(c).key_bytes);
    }
  }
  key_scratch_.resize(max_key);
}

// None mode checks the stored hash before the memcmp of the raw slots;
// Collapse entries are short, so it memcmps them directly (dropping the
// hash array is a large part of its footprint win).
std::uint32_t StateStore::probe(std::span<const std::byte> entry,
                                std::uint64_t hash, bool& found) const {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash) & mask;
  const bool check_hash = mode_ == ta::Compression::None;
  while (true) {
    const std::uint32_t stored = table_[i];
    if (stored == kInvalidIndex) {
      found = false;
      return static_cast<std::uint32_t>(i);
    }
    if ((!check_hash || hashes_[stored] == hash) &&
        std::memcmp(arena_.entry(stored), entry.data(),
                    entry_bytes_) == 0) {
      found = true;
      return static_cast<std::uint32_t>(i);
    }
    i = (i + 1) & mask;
  }
}

std::uint64_t StateStore::entry_hash(const std::byte* entry) const {
  if (!root_fast_) return hash_bytes({entry, entry_bytes_});
  std::uint64_t key;
  std::memcpy(&key, entry, sizeof key);
  return mix_key(key);
}

void StateStore::grow_table() {
  std::vector<std::uint32_t> old = std::move(table_);
  table_.assign(old.size() * 2, kInvalidIndex);
  const std::size_t mask = table_.size() - 1;
  for (std::uint32_t entry : old) {
    if (entry == kInvalidIndex) continue;
    const std::uint64_t hash = mode_ == ta::Compression::None
                                   ? hashes_[entry]
                                   : entry_hash(arena_.entry(entry));
    std::size_t i = static_cast<std::size_t>(hash) & mask;
    while (table_[i] != kInvalidIndex) i = (i + 1) & mask;
    table_[i] = entry;
  }
}

// ---- component tables (Collapse) ----

std::uint32_t StateStore::comp_intern(std::size_t c,
                                      std::span<const std::byte> key) {
  CompTable& comp = comps_[c];
  const std::size_t key_bytes = codec_->component(c).key_bytes;
  const std::uint64_t hash = hash_bytes(key);
  const std::size_t mask = comp.table.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash) & mask;
  while (true) {
    const std::uint32_t entry = comp.table[i];
    if (entry == kInvalidIndex) break;
    if (std::memcmp(comp.keys.entry(entry), key.data(),
                    key_bytes) == 0) {
      return entry;
    }
    i = (i + 1) & mask;
  }
  AHB_ASSERT(comp.count < kInvalidIndex);
  const auto index = comp.count;
  std::memcpy(comp.keys.ensure(index), key.data(), key_bytes);
  comp.table[i] = index;
  ++comp.count;
  if (static_cast<std::size_t>(comp.count) * 10 >= comp.table.size() * 7) {
    std::vector<std::uint32_t> old = std::move(comp.table);
    comp.table.assign(old.size() * 2, kInvalidIndex);
    const std::size_t grown_mask = comp.table.size() - 1;
    for (std::uint32_t entry : old) {
      if (entry == kInvalidIndex) continue;
      std::size_t j = static_cast<std::size_t>(hash_bytes(
                          {comp.keys.entry(entry), key_bytes})) &
                      grown_mask;
      while (comp.table[j] != kInvalidIndex) j = (j + 1) & grown_mask;
      comp.table[j] = entry;
    }
  }
  return index;
}

std::uint32_t StateStore::comp_intern_fast(std::size_t c, std::uint64_t key) {
  CompTable& comp = comps_[c];
  const std::size_t mask = comp.fast_table.size() - 1;
  std::size_t i = static_cast<std::size_t>(mix_key(key)) & mask;
  while (true) {
    const CompTable::FastSlot& slot = comp.fast_table[i];
    if (slot.index == kInvalidIndex) break;
    if (slot.key == key) return slot.index;
    i = (i + 1) & mask;
  }
  AHB_ASSERT(comp.count < kInvalidIndex);
  const auto index = comp.count;
  std::memcpy(comp.keys.ensure(index), &key, sizeof key);
  comp.fast_table[i] = CompTable::FastSlot{key, index};
  ++comp.count;
  if (static_cast<std::size_t>(comp.count) * 10 >=
      comp.fast_table.size() * 7) {
    std::vector<CompTable::FastSlot> old = std::move(comp.fast_table);
    comp.fast_table.assign(old.size() * 2, CompTable::FastSlot{});
    const std::size_t grown_mask = comp.fast_table.size() - 1;
    for (const auto& slot : old) {
      if (slot.index == kInvalidIndex) continue;
      std::size_t j = static_cast<std::size_t>(mix_key(slot.key)) & grown_mask;
      while (comp.fast_table[j].index != kInvalidIndex) {
        j = (j + 1) & grown_mask;
      }
      comp.fast_table[j] = slot;
    }
  }
  return index;
}

std::uint64_t StateStore::encode_entry(std::span<const ta::Slot> slots) {
  for (std::size_t c = 0; c < codec_->component_count(); ++c) {
    const auto& comp = codec_->component(c);
    if (comp.index_bits == 0) {
      index_scratch_[c] = 0;
      continue;
    }
    if (comp.key_bits <= 64) {
      index_scratch_[c] =
          comp_intern_fast(c, codec_->pack_component_key(c, slots));
      continue;
    }
    codec_->pack_component(c, slots, key_scratch_.data());
    index_scratch_[c] = comp_intern(c, {key_scratch_.data(), comp.key_bytes});
  }
  if (root_fast_) {
    const std::uint64_t key = codec_->pack_root_key(index_scratch_, slots);
    std::memcpy(entry_scratch_.data(), &key, sizeof key);
    return mix_key(key);
  }
  codec_->pack_root(index_scratch_, slots, entry_scratch_.data());
  return hash_bytes({entry_scratch_.data(), entry_bytes_});
}

// ---- public API ----

std::pair<std::uint32_t, bool> StateStore::intern(
    std::span<const ta::Slot> slots, std::uint32_t parent) {
  return intern_hashed(
      slots, mode_ == ta::Compression::None ? hash_span(slots) : 0, parent);
}

std::pair<std::uint32_t, bool> StateStore::intern_hashed(
    std::span<const ta::Slot> slots, std::uint64_t slot_hash,
    std::uint32_t parent) {
  AHB_EXPECTS(slots.size() == stride_);
  std::span<const std::byte> entry;
  std::uint64_t hash;
  if (mode_ == ta::Compression::None) {
    entry = std::as_bytes(slots);
    hash = slot_hash;
  } else {
    hash = encode_entry(slots);
    entry = {entry_scratch_.data(), entry_bytes_};
  }
  bool found = false;
  const std::uint32_t slot = probe(entry, hash, found);
  if (found) return {table_[slot], false};

  const std::size_t count = size();
  AHB_ASSERT(count < kMaxStates);
  const auto index = static_cast<std::uint32_t>(count);
  std::memcpy(arena_.ensure(index), entry.data(), entry_bytes_);
  std::memcpy(parents_.ensure(index), &parent, sizeof parent);
  if (mode_ == ta::Compression::None) hashes_.push_back(hash);
  table_[slot] = index;
  count_.store(count + 1, std::memory_order_relaxed);
  if ((count + 1) * 10 >= table_.size() * 7) grow_table();
  return {index, true};
}

ta::State StateStore::get(std::uint32_t index) const {
  ta::State s(stride_);
  load(index, s);
  return s;
}

void StateStore::load(std::uint32_t index, ta::State& out) const {
  AHB_EXPECTS(index < size());
  if (out.size() != stride_) out = ta::State(stride_);
  const std::byte* entry = arena_.entry(index);
  switch (mode_) {
    case ta::Compression::None: {
      out.assign({reinterpret_cast<const ta::Slot*>(entry), stride_});
      return;
    }
    case ta::Compression::Collapse: {
      tl_indices.resize(codec_->component_count());
      if (root_fast_) {
        std::uint64_t key;
        std::memcpy(&key, entry, sizeof key);
        codec_->unpack_root_key(key, tl_indices, out.slots_mut());
      } else {
        codec_->unpack_root(entry, tl_indices, out.slots_mut());
      }
      for (std::size_t c = 0; c < codec_->component_count(); ++c) {
        const auto& comp = codec_->component(c);
        if (comp.index_bits != 0 && comp.key_bits <= 64) {
          std::uint64_t key;
          std::memcpy(&key,
                      comps_[c].keys.entry(tl_indices[c]),
                      sizeof key);
          codec_->unpack_component_key(c, key, out.slots_mut());
          continue;
        }
        // Constant components store nothing: all member fields are
        // zero-width, so the decode never dereferences the key pointer.
        const std::byte* key =
            comp.index_bits == 0
                ? nullptr
                : comps_[c].keys.entry(tl_indices[c]);
        codec_->unpack_component(c, key, out.slots_mut());
      }
      return;
    }
  }
}

std::span<const ta::Slot> StateStore::raw(std::uint32_t index) const {
  AHB_EXPECTS(mode_ == ta::Compression::None);
  AHB_EXPECTS(index < size());
  return {reinterpret_cast<const ta::Slot*>(arena_.entry(index)),
          stride_};
}

std::uint32_t StateStore::parent_of(std::uint32_t index) const {
  AHB_EXPECTS(index < size());
  std::uint32_t parent;
  std::memcpy(&parent, parents_.entry(index), sizeof parent);
  return parent;
}

std::size_t StateStore::memory_bytes() const {
  std::size_t bytes = arena_.allocated_bytes + parents_.allocated_bytes +
                      hashes_.capacity() * sizeof(std::uint64_t) +
                      table_.capacity() * sizeof(std::uint32_t);
  for (const auto& comp : comps_) {
    bytes += comp.keys.allocated_bytes +
             comp.table.capacity() * sizeof(std::uint32_t) +
             comp.fast_table.capacity() * sizeof(CompTable::FastSlot);
  }
  return bytes;
}

}  // namespace ahb::mc
