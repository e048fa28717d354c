#include "mc/store.hpp"

#include <algorithm>
#include <cstring>

#include "util/contracts.hpp"
#include "util/hash.hpp"

namespace ahb::mc {

namespace {
constexpr std::size_t kInitialTableSize = 1u << 12;
// Component tables start small: even large sweeps see only hundreds of
// distinct local sub-vectors per automaton.
constexpr std::size_t kInitialCompTableSize = 1u << 6;

/// Full-avalanche mix (splitmix64 finalizer) for inline keys. The
/// stores mask the *low* hash bits down to the table size, and the keys
/// are structured bit-concatenations, so a cheap multiply-only mix
/// clusters probe chains once the table outgrows the cache.
inline std::uint64_t mix_key(std::uint64_t key) {
  std::uint64_t h = key;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}
}  // namespace

StateStore::StateStore(std::size_t stride) : stride_(stride) {
  AHB_EXPECTS(stride > 0);
  table_.assign(kInitialTableSize, kInvalidIndex);
}

StateStore::StateStore(const ta::StateCodec& codec, ta::Compression mode)
    : codec_(&codec), mode_(mode), stride_(codec.slot_count()) {
  AHB_EXPECTS(stride_ > 0);
  table_.assign(kInitialTableSize, kInvalidIndex);
  if (mode_ == ta::Compression::None) {
    codec_ = nullptr;  // byte-identical to the stride-only constructor
    return;
  }
  root_fast_ = codec.root_bits() <= 64;
  entry_bytes_ = root_fast_ ? sizeof(std::uint64_t) : codec.root_bytes();
  entry_scratch_.resize(entry_bytes_);
  comps_.resize(codec.component_count());
  index_scratch_.resize(codec.component_count());
  std::size_t max_key = 0;
  for (std::size_t c = 0; c < codec.component_count(); ++c) {
    if (codec.component(c).index_bits == 0) continue;
    if (codec.component(c).key_bits <= 64) {
      comps_[c].fast_table.assign(kInitialCompTableSize,
                                  CompTable::FastSlot{});
    } else {
      comps_[c].table.assign(kInitialCompTableSize, kInvalidIndex);
      max_key = std::max(max_key, codec.component(c).key_bytes);
    }
  }
  key_scratch_.resize(max_key);
}

// ---- None-mode probing (raw slots + stored hashes) ----

std::uint32_t StateStore::probe(std::span<const ta::Slot> slots,
                                std::uint64_t hash, bool& found) const {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash) & mask;
  while (true) {
    const std::uint32_t entry = table_[i];
    if (entry == kInvalidIndex) {
      found = false;
      return static_cast<std::uint32_t>(i);
    }
    if (hashes_[entry] == hash) {
      const ta::Slot* stored = arena_.data() + entry * stride_;
      if (std::memcmp(stored, slots.data(), stride_ * sizeof(ta::Slot)) == 0) {
        found = true;
        return static_cast<std::uint32_t>(i);
      }
    }
    i = (i + 1) & mask;
  }
}

// ---- Collapse-mode probing (short encoded entries, no stored
// hashes: the memcmp is cheap and dropping the hash array is a large
// part of the footprint win) ----

std::uint32_t StateStore::probe_bytes(std::span<const std::byte> key,
                                      std::uint64_t hash, bool& found) const {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash) & mask;
  while (true) {
    const std::uint32_t entry = table_[i];
    if (entry == kInvalidIndex) {
      found = false;
      return static_cast<std::uint32_t>(i);
    }
    if (std::memcmp(entry_of(entry), key.data(), entry_bytes_) == 0) {
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
                                   : entry_hash(entry_of(entry));
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
    if (std::memcmp(comp.keys.data() + entry * key_bytes, key.data(),
                    key_bytes) == 0) {
      return entry;
    }
    i = (i + 1) & mask;
  }
  const auto index = comp.count;
  comp.keys.insert(comp.keys.end(), key.begin(), key.end());
  comp.table[i] = index;
  ++comp.count;
  if (static_cast<std::size_t>(comp.count) * 10 >= comp.table.size() * 7) {
    std::vector<std::uint32_t> old = std::move(comp.table);
    comp.table.assign(old.size() * 2, kInvalidIndex);
    const std::size_t grown_mask = comp.table.size() - 1;
    for (std::uint32_t entry : old) {
      if (entry == kInvalidIndex) continue;
      std::size_t j = static_cast<std::size_t>(hash_bytes(
                          {comp.keys.data() + entry * key_bytes, key_bytes})) &
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
  const auto index = comp.count;
  comp.fast_table[i] = CompTable::FastSlot{key, index};
  comp.fast_keys.push_back(key);
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

std::uint32_t StateStore::comp_find_fast(std::size_t c,
                                         std::uint64_t key) const {
  const CompTable& comp = comps_[c];
  const std::size_t mask = comp.fast_table.size() - 1;
  std::size_t i = static_cast<std::size_t>(mix_key(key)) & mask;
  while (true) {
    const CompTable::FastSlot& slot = comp.fast_table[i];
    if (slot.index == kInvalidIndex) return kInvalidIndex;
    if (slot.key == key) return slot.index;
    i = (i + 1) & mask;
  }
}

std::uint32_t StateStore::comp_find(std::size_t c,
                                    std::span<const std::byte> key) const {
  const CompTable& comp = comps_[c];
  const std::size_t key_bytes = codec_->component(c).key_bytes;
  const std::size_t mask = comp.table.size() - 1;
  std::size_t i =
      static_cast<std::size_t>(hash_bytes(key)) & mask;
  while (true) {
    const std::uint32_t entry = comp.table[i];
    if (entry == kInvalidIndex) return kInvalidIndex;
    if (std::memcmp(comp.keys.data() + entry * key_bytes, key.data(),
                    key_bytes) == 0) {
      return entry;
    }
    i = (i + 1) & mask;
  }
}

bool StateStore::encode_entry(std::span<const ta::Slot> slots,
                              bool insert_components,
                              std::uint64_t& hash) const {
  for (std::size_t c = 0; c < codec_->component_count(); ++c) {
    if (codec_->component(c).index_bits == 0) {
      index_scratch_[c] = 0;
      continue;
    }
    if (codec_->component(c).key_bits <= 64) {
      const std::uint64_t key = codec_->pack_component_key(c, slots);
      if (insert_components) {
        // comp_intern mutates the component tables; intern() is the only
        // caller that reaches here, find() passes insert_components=false.
        index_scratch_[c] =
            const_cast<StateStore*>(this)->comp_intern_fast(c, key);
      } else {
        const std::uint32_t idx = comp_find_fast(c, key);
        if (idx == kInvalidIndex) return false;
        index_scratch_[c] = idx;
      }
      continue;
    }
    codec_->pack_component(c, slots, key_scratch_.data());
    const std::span<const std::byte> key{key_scratch_.data(),
                                         codec_->component(c).key_bytes};
    if (insert_components) {
      index_scratch_[c] = const_cast<StateStore*>(this)->comp_intern(c, key);
    } else {
      const std::uint32_t idx = comp_find(c, key);
      if (idx == kInvalidIndex) return false;
      index_scratch_[c] = idx;
    }
  }
  if (root_fast_) {
    const std::uint64_t key = codec_->pack_root_key(index_scratch_, slots);
    std::memcpy(entry_scratch_.data(), &key, sizeof key);
    hash = mix_key(key);
    return true;
  }
  codec_->pack_root(index_scratch_, slots, entry_scratch_.data());
  hash = hash_bytes({entry_scratch_.data(), entry_bytes_});
  return true;
}

// ---- public API ----

std::pair<std::uint32_t, bool> StateStore::intern(const ta::State& s) {
  return intern(s.slots());
}

std::pair<std::uint32_t, bool> StateStore::intern(
    std::span<const ta::Slot> slots) {
  AHB_EXPECTS(slots.size() == stride_);
  if (mode_ == ta::Compression::None) {
    const std::uint64_t hash = hash_span(slots);
    bool found = false;
    std::uint32_t slot = probe(slots, hash, found);
    if (found) return {table_[slot], false};

    const auto index = static_cast<std::uint32_t>(count_);
    arena_.insert(arena_.end(), slots.begin(), slots.end());
    hashes_.push_back(hash);
    table_[slot] = index;
    ++count_;
    if (count_ * 10 >= table_.size() * 7) grow_table();
    return {index, true};
  }

  std::uint64_t hash = 0;
  encode_entry(slots, /*insert_components=*/true, hash);
  bool found = false;
  const std::uint32_t slot = probe_bytes(
      {entry_scratch_.data(), entry_bytes_}, hash, found);
  if (found) return {table_[slot], false};

  const auto index = static_cast<std::uint32_t>(count_);
  bytes_.insert(bytes_.end(), entry_scratch_.begin(),
                entry_scratch_.begin() + static_cast<std::ptrdiff_t>(
                                             entry_bytes_));
  table_[slot] = index;
  ++count_;
  if (count_ * 10 >= table_.size() * 7) grow_table();
  return {index, true};
}

std::uint32_t StateStore::find(const ta::State& s) const {
  AHB_EXPECTS(s.size() == stride_);
  bool found = false;
  if (mode_ == ta::Compression::None) {
    const std::uint32_t slot = probe(s.slots(), s.hash(), found);
    return found ? table_[slot] : kInvalidIndex;
  }
  std::uint64_t hash = 0;
  if (!encode_entry(s.slots(), /*insert_components=*/false, hash)) {
    return kInvalidIndex;
  }
  const std::uint32_t slot =
      probe_bytes({entry_scratch_.data(), entry_bytes_}, hash, found);
  return found ? table_[slot] : kInvalidIndex;
}

ta::State StateStore::get(std::uint32_t index) const {
  ta::State s(stride_);
  load(index, s);
  return s;
}

void StateStore::load(std::uint32_t index, ta::State& out) const {
  AHB_EXPECTS(index < count_);
  if (out.size() != stride_) out = ta::State(stride_);
  switch (mode_) {
    case ta::Compression::None: {
      out.assign({arena_.data() + index * stride_, stride_});
      return;
    }
    case ta::Compression::Collapse: {
      if (root_fast_) {
        std::uint64_t key;
        std::memcpy(&key, entry_of(index), sizeof key);
        codec_->unpack_root_key(key, index_scratch_, out.slots_mut());
      } else {
        codec_->unpack_root(entry_of(index), index_scratch_, out.slots_mut());
      }
      for (std::size_t c = 0; c < codec_->component_count(); ++c) {
        const auto& comp = codec_->component(c);
        if (comp.index_bits != 0 && comp.key_bits <= 64) {
          codec_->unpack_component_key(c, comps_[c].fast_keys[index_scratch_[c]],
                                       out.slots_mut());
          continue;
        }
        // Constant components store nothing: all member fields are
        // zero-width, so the decode never dereferences the key pointer.
        const std::byte* key =
            comp.index_bits == 0
                ? nullptr
                : comps_[c].keys.data() + index_scratch_[c] * comp.key_bytes;
        codec_->unpack_component(c, key, out.slots_mut());
      }
      return;
    }
  }
}

std::span<const ta::Slot> StateStore::raw(std::uint32_t index) const {
  AHB_EXPECTS(mode_ == ta::Compression::None);
  AHB_EXPECTS(index < count_);
  return {arena_.data() + index * stride_, stride_};
}

std::size_t StateStore::memory_bytes() const {
  std::size_t bytes = arena_.capacity() * sizeof(ta::Slot) +
                      hashes_.capacity() * sizeof(std::uint64_t) +
                      bytes_.capacity() +
                      table_.capacity() * sizeof(std::uint32_t);
  for (const auto& comp : comps_) {
    bytes += comp.keys.capacity() +
             comp.table.capacity() * sizeof(std::uint32_t) +
             comp.fast_table.capacity() * sizeof(CompTable::FastSlot) +
             comp.fast_keys.capacity() * sizeof(std::uint64_t);
  }
  return bytes;
}

}  // namespace ahb::mc
