#include "mc/concurrent_store.hpp"

#include <cstring>

#include "util/contracts.hpp"
#include "util/hash.hpp"

namespace ahb::mc {

namespace {
// Small per-shard start: with 64 shards even tiny models pay little, and
// big runs grow each shard geometrically like StateStore does.
constexpr std::size_t kInitialTableSize = 1u << 8;
constexpr std::size_t kInitialCompTableSize = 1u << 6;

/// Full-avalanche mix (splitmix64 finalizer) for inline keys; see the
/// StateStore twin for why a multiply-only mix is not enough here.
inline std::uint64_t mix_key(std::uint64_t key) {
  std::uint64_t h = key;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

// Reusable per-thread encode/decode buffers. Sizes differ between store
// instances, so every use resizes first (a no-op when unchanged).
thread_local std::vector<std::byte> tl_entry;
thread_local std::vector<std::byte> tl_key;
thread_local std::vector<std::uint32_t> tl_indices;
}  // namespace

const std::byte* ConcurrentStateStore::Arena::entry(
    std::uint32_t offset, std::size_t entry_bytes) const {
  const auto [seg, within] = segment_of(offset);
  return segments[static_cast<std::size_t>(seg)].get() +
         static_cast<std::size_t>(within) * entry_bytes;
}

std::byte* ConcurrentStateStore::Arena::ensure(std::uint32_t offset,
                                               std::size_t entry_bytes) {
  const auto [seg, within] = segment_of(offset);
  auto& segment = segments[static_cast<std::size_t>(seg)];
  if (!segment) {
    const std::size_t cap =
        seg == 0 ? kSeg0Entries : (1u << (kSeg0Bits + seg - 1));
    segment = std::make_unique<std::byte[]>(cap * entry_bytes);
    allocated_bytes += cap * entry_bytes;
  }
  return segment.get() + static_cast<std::size_t>(within) * entry_bytes;
}

ConcurrentStateStore::ConcurrentStateStore(std::size_t stride)
    : stride_(stride), entry_bytes_(stride * sizeof(ta::Slot)) {
  AHB_EXPECTS(stride > 0);
  for (auto& shard : shards_) {
    shard.table.assign(kInitialTableSize, kInvalidIndex);
  }
}

ConcurrentStateStore::ConcurrentStateStore(const ta::StateCodec& codec,
                                           ta::Compression mode)
    : codec_(&codec), mode_(mode), stride_(codec.slot_count()) {
  AHB_EXPECTS(stride_ > 0);
  if (mode_ == ta::Compression::None) {
    codec_ = nullptr;  // byte-identical to the stride-only constructor
    entry_bytes_ = stride_ * sizeof(ta::Slot);
  } else {
    root_fast_ = codec.root_bits() <= 64;
    entry_bytes_ = root_fast_ ? sizeof(std::uint64_t) : codec.root_bytes();
  }
  for (auto& shard : shards_) {
    shard.table.assign(kInitialTableSize, kInvalidIndex);
    if (mode_ == ta::Compression::Collapse) {
      shard.comps.resize(codec.component_count());
      for (std::size_t c = 0; c < codec.component_count(); ++c) {
        if (codec.component(c).index_bits == 0) continue;
        if (codec.component(c).key_bits <= 64) {
          shard.comps[c].fast_table.assign(kInitialCompTableSize,
                                           CompShard::FastSlot{});
        } else {
          shard.comps[c].table.assign(kInitialCompTableSize, kInvalidIndex);
        }
      }
    }
  }
}

std::uint32_t ConcurrentStateStore::probe(const Shard& shard,
                                          std::span<const std::byte> entry,
                                          std::uint64_t hash,
                                          bool& found) const {
  const std::size_t mask = shard.table.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash) & mask;
  const bool check_hash = mode_ == ta::Compression::None;
  while (true) {
    const std::uint32_t stored = shard.table[i];
    if (stored == kInvalidIndex) {
      found = false;
      return static_cast<std::uint32_t>(i);
    }
    if ((!check_hash || shard.hashes[stored] == hash) &&
        std::memcmp(shard.arena.entry(stored, entry_bytes_), entry.data(),
                    entry_bytes_) == 0) {
      found = true;
      return static_cast<std::uint32_t>(i);
    }
    i = (i + 1) & mask;
  }
}

std::uint64_t ConcurrentStateStore::entry_hash(const std::byte* entry) const {
  if (!root_fast_) return hash_bytes({entry, entry_bytes_});
  std::uint64_t key;
  std::memcpy(&key, entry, sizeof key);
  return mix_key(key);
}

void ConcurrentStateStore::grow_table(Shard& shard) {
  std::vector<std::uint32_t> old = std::move(shard.table);
  shard.table.assign(old.size() * 2, kInvalidIndex);
  const std::size_t mask = shard.table.size() - 1;
  for (std::uint32_t entry : old) {
    if (entry == kInvalidIndex) continue;
    const std::uint64_t hash =
        mode_ == ta::Compression::None
            ? shard.hashes[entry]
            : entry_hash(shard.arena.entry(entry, entry_bytes_));
    std::size_t i = static_cast<std::size_t>(hash) & mask;
    while (shard.table[i] != kInvalidIndex) i = (i + 1) & mask;
    shard.table[i] = entry;
  }
}

std::uint32_t ConcurrentStateStore::comp_intern(
    Shard& shard, std::size_t c, std::span<const std::byte> key) {
  CompShard& comp = shard.comps[c];
  const std::size_t key_bytes = codec_->component(c).key_bytes;
  const std::uint64_t hash = hash_bytes(key);
  const std::size_t mask = comp.table.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash) & mask;
  while (true) {
    const std::uint32_t entry = comp.table[i];
    if (entry == kInvalidIndex) break;
    if (std::memcmp(comp.keys.entry(entry, key_bytes), key.data(),
                    key_bytes) == 0) {
      return entry;
    }
    i = (i + 1) & mask;
  }
  AHB_ASSERT(comp.count < kMaxPerShard);
  const auto index = comp.count;
  std::memcpy(comp.keys.ensure(index, key_bytes), key.data(), key_bytes);
  comp.table[i] = index;
  ++comp.count;
  if (static_cast<std::size_t>(comp.count) * 10 >= comp.table.size() * 7) {
    std::vector<std::uint32_t> old = std::move(comp.table);
    comp.table.assign(old.size() * 2, kInvalidIndex);
    const std::size_t grown_mask = comp.table.size() - 1;
    for (std::uint32_t entry : old) {
      if (entry == kInvalidIndex) continue;
      std::size_t j = static_cast<std::size_t>(hash_bytes(
                          {comp.keys.entry(entry, key_bytes), key_bytes})) &
                      grown_mask;
      while (comp.table[j] != kInvalidIndex) j = (j + 1) & grown_mask;
      comp.table[j] = entry;
    }
  }
  return index;
}

std::uint32_t ConcurrentStateStore::comp_intern_fast(Shard& shard,
                                                     std::size_t c,
                                                     std::uint64_t key) {
  CompShard& comp = shard.comps[c];
  const std::size_t mask = comp.fast_table.size() - 1;
  std::size_t i = static_cast<std::size_t>(mix_key(key)) & mask;
  while (true) {
    const CompShard::FastSlot& slot = comp.fast_table[i];
    if (slot.index == kInvalidIndex) break;
    if (slot.key == key) return slot.index;
    i = (i + 1) & mask;
  }
  AHB_ASSERT(comp.count < kMaxPerShard);
  const auto index = comp.count;
  // Published keys must be readable lock-free, so they live in the
  // never-moving arena as 8-byte entries; the probe table may reallocate
  // (it is only touched under the shard lock).
  std::memcpy(comp.keys.ensure(index, sizeof(std::uint64_t)), &key,
              sizeof(std::uint64_t));
  comp.fast_table[i] = CompShard::FastSlot{key, index};
  ++comp.count;
  if (static_cast<std::size_t>(comp.count) * 10 >=
      comp.fast_table.size() * 7) {
    std::vector<CompShard::FastSlot> old = std::move(comp.fast_table);
    comp.fast_table.assign(old.size() * 2, CompShard::FastSlot{});
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

std::uint64_t ConcurrentStateStore::encode_entry_locked(
    Shard& shard, std::span<const ta::Slot> slots,
    std::vector<std::byte>& entry, std::vector<std::uint32_t>& indices,
    std::vector<std::byte>& key) {
  indices.resize(codec_->component_count());
  for (std::size_t c = 0; c < codec_->component_count(); ++c) {
    const auto& comp = codec_->component(c);
    if (comp.index_bits == 0) {
      indices[c] = 0;
      continue;
    }
    if (comp.key_bits <= 64) {
      indices[c] =
          comp_intern_fast(shard, c, codec_->pack_component_key(c, slots));
      continue;
    }
    key.resize(comp.key_bytes);
    codec_->pack_component(c, slots, key.data());
    indices[c] = comp_intern(shard, c, {key.data(), comp.key_bytes});
  }
  entry.resize(entry_bytes_);
  if (root_fast_) {
    const std::uint64_t root_key = codec_->pack_root_key(indices, slots);
    std::memcpy(entry.data(), &root_key, sizeof root_key);
    return mix_key(root_key);
  }
  codec_->pack_root(indices, slots, entry.data());
  return hash_bytes({entry.data(), entry_bytes_});
}

std::pair<std::uint32_t, bool> ConcurrentStateStore::intern(
    std::span<const ta::Slot> slots, std::uint32_t parent) {
  AHB_EXPECTS(slots.size() == stride_);
  // Shard selection must be independent of shard-local encoding, so it
  // hashes the raw slot bytes (which None also reuses as its probe hash).
  const std::uint64_t shard_hash = hash_span(slots);
  const auto shard_id =
      static_cast<std::uint32_t>(shard_hash >> (64 - kShardBits));
  Shard& shard = shards_[shard_id];

  std::uint32_t offset;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    std::span<const std::byte> entry;
    std::uint64_t probe_hash;
    if (mode_ == ta::Compression::None) {
      entry = std::as_bytes(slots);
      probe_hash = shard_hash;
    } else {
      probe_hash =
          encode_entry_locked(shard, slots, tl_entry, tl_indices, tl_key);
      entry = std::span<const std::byte>{tl_entry.data(), entry_bytes_};
    }

    bool found = false;
    const std::uint32_t slot = probe(shard, entry, probe_hash, found);
    if (found) {
      return {(shard_id << kOffsetBits) | shard.table[slot], false};
    }

    AHB_ASSERT(shard.count < kMaxPerShard);
    offset = shard.count;
    std::memcpy(shard.arena.ensure(offset, entry_bytes_), entry.data(),
                entry_bytes_);
    if (mode_ == ta::Compression::None) shard.hashes.push_back(shard_hash);
    shard.parents.push_back(parent);
    shard.table[slot] = offset;
    ++shard.count;
    if (static_cast<std::size_t>(shard.count) * 10 >=
        shard.table.size() * 7) {
      grow_table(shard);
    }
  }
  total_.fetch_add(1, std::memory_order_relaxed);
  return {(shard_id << kOffsetBits) | offset, true};
}

std::span<const ta::Slot> ConcurrentStateStore::raw(
    std::uint32_t index) const {
  AHB_EXPECTS(mode_ == ta::Compression::None);
  const std::uint32_t shard_id = index >> kOffsetBits;
  const std::uint32_t offset = index & kMaxPerShard;
  return {reinterpret_cast<const ta::Slot*>(
              shards_[shard_id].arena.entry(offset, entry_bytes_)),
          stride_};
}

ta::State ConcurrentStateStore::get(std::uint32_t index) const {
  ta::State s(stride_);
  load(index, s);
  return s;
}

void ConcurrentStateStore::load(std::uint32_t index, ta::State& out) const {
  const std::uint32_t shard_id = index >> kOffsetBits;
  const std::uint32_t offset = index & kMaxPerShard;
  const Shard& shard = shards_[shard_id];
  const std::byte* entry = shard.arena.entry(offset, entry_bytes_);
  if (out.size() != stride_) out = ta::State(stride_);
  switch (mode_) {
    case ta::Compression::None: {
      out.assign({reinterpret_cast<const ta::Slot*>(entry), stride_});
      return;
    }
    case ta::Compression::Collapse: {
      tl_indices.resize(codec_->component_count());
      if (root_fast_) {
        std::uint64_t root_key;
        std::memcpy(&root_key, entry, sizeof root_key);
        codec_->unpack_root_key(root_key, tl_indices, out.slots_mut());
      } else {
        codec_->unpack_root(entry, tl_indices, out.slots_mut());
      }
      for (std::size_t c = 0; c < codec_->component_count(); ++c) {
        const auto& comp = codec_->component(c);
        if (comp.index_bits != 0 && comp.key_bits <= 64) {
          std::uint64_t fast_key;
          std::memcpy(&fast_key,
                      shard.comps[c].keys.entry(tl_indices[c],
                                                sizeof(std::uint64_t)),
                      sizeof(std::uint64_t));
          codec_->unpack_component_key(c, fast_key, out.slots_mut());
          continue;
        }
        // Constant components store nothing: all member fields are
        // zero-width, so the decode never dereferences the key pointer.
        const std::byte* key =
            comp.index_bits == 0
                ? nullptr
                : shard.comps[c].keys.entry(tl_indices[c], comp.key_bytes);
        codec_->unpack_component(c, key, out.slots_mut());
      }
      return;
    }
  }
}

std::uint32_t ConcurrentStateStore::parent_of(std::uint32_t index) const {
  const std::uint32_t shard_id = index >> kOffsetBits;
  const std::uint32_t offset = index & kMaxPerShard;
  return shards_[shard_id].parents[offset];
}

std::size_t ConcurrentStateStore::memory_bytes() const {
  std::size_t bytes = 0;
  for (const auto& shard : shards_) {
    bytes += shard.arena.allocated_bytes +
             shard.hashes.capacity() * sizeof(std::uint64_t) +
             shard.parents.capacity() * sizeof(std::uint32_t) +
             shard.table.capacity() * sizeof(std::uint32_t);
    for (const auto& comp : shard.comps) {
      bytes += comp.keys.allocated_bytes +
               comp.table.capacity() * sizeof(std::uint32_t) +
               comp.fast_table.capacity() * sizeof(CompShard::FastSlot);
    }
  }
  return bytes;
}

}  // namespace ahb::mc
