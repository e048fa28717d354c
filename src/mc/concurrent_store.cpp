#include "mc/concurrent_store.hpp"

#include "util/contracts.hpp"
#include "util/hash.hpp"

namespace ahb::mc {

ConcurrentStateStore::ConcurrentStateStore(std::size_t stride) {
  for (auto& shard : shards_) shard = std::make_unique<Shard>(stride);
}

ConcurrentStateStore::ConcurrentStateStore(const ta::StateCodec& codec,
                                           ta::Compression mode) {
  for (auto& shard : shards_) shard = std::make_unique<Shard>(codec, mode);
}

std::pair<std::uint32_t, bool> ConcurrentStateStore::intern(
    std::span<const ta::Slot> slots, std::uint32_t parent) {
  const std::uint64_t slot_hash = hash_span(slots);
  const auto shard_id =
      static_cast<std::uint32_t>(slot_hash >> (64 - kShardBits));
  Shard& shard = *shards_[shard_id];
  std::pair<std::uint32_t, bool> result;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    result = shard.store.intern_hashed(slots, slot_hash, parent);
  }
  if (result.second) {
    AHB_ASSERT(result.first < kMaxPerShard);
    total_.fetch_add(1, std::memory_order_relaxed);
  }
  return {(shard_id << kOffsetBits) | result.first, result.second};
}

std::size_t ConcurrentStateStore::memory_bytes() const {
  std::size_t bytes = 0;
  for (const auto& shard : shards_) bytes += shard->store.memory_bytes();
  return bytes;
}

}  // namespace ahb::mc
