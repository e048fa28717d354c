// Hierarchical timer wheel: the event queue of the heartbeat engine
// (hb::ScaleCluster) and of the plain-heartbeat baseline
// (bench/bench_overhead_reliability.cpp).
//
// A binary heap of heap-allocated closures makes arming a deadline
// O(log n), and cancel+rearm — which the heartbeat engine does on
// *every* message delivery — churns the heap. At hundreds of thousands
// of monitored participants that dominates the run. This wheel buckets
// entries by expiry tick across kLevels levels of 64 slots each
// (Varghese–Lauck): level k spans 64^(k+1) ticks, so any deadline
// within ~6.9e10 ticks of now is an O(1) append. Arms beyond that span
// (a crash scheduled at 2^40, a timer behind a clock that leapt back)
// wait in a small min-heap by expiry tick and are filed into the wheel
// when they come within span; they cost O(log k) for the k such entries
// and nothing while there are none.
//
// Layout. Entries are stored by value — {when, seq, id, payload}, the
// priority implied by the list holding them — in one list per
// (level, slot, priority). A list is a chain of 64-entry chunks carved
// from blocks that never move and double in size from one chunk, so
// arming writes one entry at a list's tail, firing reads the due lists
// front to back, and an empty wheel allocates nothing.
//
// Cancellation. arm() gives an entry an id and returns a handle;
// post() files an entry that can never be cancelled (a delivery, a
// scheduled fault) with no id, so it takes and retires nothing and is
// always live. Cancellation retires the handle's id in a dense per-id
// array: an armed entry is live iff that array still holds the entry's
// 64-bit arm sequence number, which is never reused, so no stale entry
// can come back to life. The entry itself is removed at once only when
// it is still the newest of its list (the handle names that list, and
// each list keeps its last seq) — the common case in a small cluster,
// where a re-armed deadline is often alone in its slot. Otherwise it
// stays, dead, until its list is cascaded or drained, and a cancel that
// leaves more dead entries than live ones (plus kSweepSlack) compacts
// every list, so stored() stays below twice the live count at the
// latest cancel plus a constant, at amortized O(1) per cancel. rearm()
// keeps a live handle's id, and rewrites the entry in place when it is
// the newest of the list the new deadline files into.
//
// Firing. The due level-0 lists are drained in place through a cursor,
// delivery priority first; a chunk is released as the cursor leaves it,
// and same-tick arms append behind the cursor. Arms append in sequence
// order, so only a list that a cascade or a far filing left out of
// order is sorted, once, when its tick comes.
//
// Determinism contract: entries due at the same tick fire ordered by
// (priority, arm-sequence) — deliveries at priority 0 outrun timers at
// priority 1, ties fall back to FIFO arm order, and posts and arms
// draw from one sequence — and rearm() is indistinguishable from
// cancel() followed by arm(). The heartbeat engine's bit-for-bit
// reproducible event interleavings rest on this;
// tests/sim_timer_wheel_test.cpp pins the firing stream against a
// sorted-set oracle keyed by (when, priority, seq).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "util/contracts.hpp"

namespace ahb::sim {

template <typename Payload>
class TimerWheel {
  // Entries live in raw, never-initialised chunk storage and move by
  // plain copies.
  static_assert(std::is_trivially_copyable_v<Payload> &&
                std::is_trivially_destructible_v<Payload>);

 public:
  using Time = std::int64_t;

  /// Reference to a pending entry: its id, the list it was filed in and
  /// its arm sequence number. Default-constructed handles are invalid;
  /// cancel() of an invalid, fired or cancelled handle is a no-op.
  struct Handle {
    std::uint32_t id = kNoId;
    std::uint32_t list = kNoList;
    std::uint64_t seq = 0;
    bool valid() const { return id != kNoId; }
  };

  /// One expired entry, in (when, priority, seq) firing order.
  struct Expired {
    Time when = 0;
    int priority = 0;
    std::uint64_t seq = 0;
    Payload payload{};
  };

  explicit TimerWheel(Time start = 0) : now_(start) {}

  Time now() const { return now_; }
  /// Live entries: armed, not yet fired or cancelled.
  std::size_t pending() const { return pending_; }
  /// Entries held, cancelled ones not yet dropped included.
  std::size_t stored() const { return stored_; }

  /// Arms an entry at absolute tick `when` (>= now()). Priority is 0
  /// (deliveries) or 1 (timers) — the two lanes the engine's
  /// receive-priority tiebreak needs. O(1) within the wheel span of
  /// 64^kLevels ticks, O(log k) beyond it.
  Handle arm(Time when, int priority, const Payload& payload) {
    AHB_EXPECTS(when >= now_);
    AHB_EXPECTS(priority == 0 || priority == 1);
    std::uint32_t id;
    if (free_ids_.empty()) {
      id = static_cast<std::uint32_t>(seq_of_.size());
      seq_of_.push_back(0);
    } else {
      id = free_ids_.back();
      free_ids_.pop_back();
    }
    ++pending_;
    return file(id, when, priority, payload);
  }

  /// Files an entry that is never cancelled (a message delivery, a
  /// scheduled fault). It takes the next seq like arm(), so it fires in
  /// the same (when, priority, seq) order, but it holds no id: posting
  /// and firing it touch no per-id state, and there is no handle.
  void post(Time when, int priority, const Payload& payload) {
    AHB_EXPECTS(when >= now_);
    AHB_EXPECTS(priority == 0 || priority == 1);
    ++pending_;
    file(kNoId, when, priority, payload);
  }

  /// Cancels a pending entry; returns true if it was still pending.
  /// O(1) amortized: an entry that is still the newest of its list is
  /// dropped at once, any other later, when its list is cascaded,
  /// drained or swept.
  bool cancel(Handle h) {
    if (!live(h)) return false;
    const bool newest = is_newest(h);
    retire(h.id);
    --pending_;
    unfile(h, newest);
    return true;
  }

  /// cancel(h) followed by arm(when, priority, payload): the entry takes
  /// a fresh seq. A live handle keeps its id, and when its entry is
  /// still the newest of its list and the new (when, priority) files
  /// into that same list, the entry is rewritten in place — the
  /// position cancel+arm would give it.
  Handle rearm(Handle h, Time when, int priority, const Payload& payload) {
    if (!live(h)) return arm(when, priority, payload);
    AHB_EXPECTS(when >= now_);
    AHB_EXPECTS(priority == 0 || priority == 1);
    const bool newest = is_newest(h);
    if (newest && target(when, priority) == h.list) {
      List& list = lists_[h.list];
      Entry& entry = list.tail->entries[list.tail->size - 1];
      entry.when = when;
      entry.seq = next_seq_++;
      entry.payload = payload;
      list.last_seq = entry.seq;
      seq_of_[h.id] = entry.seq;
      return Handle{h.id, h.list, entry.seq};
    }
    seq_of_[h.id] = 0;  // the old entry is dead from here on
    unfile(h, newest);
    return file(h.id, when, priority, payload);
  }

  /// Pops the next live entry with when <= horizon, advancing now() to
  /// its tick. Entries fire in exact (when, priority, seq) order.
  bool pop(Time horizon, Expired& out) {
    while (true) {
      if (next_ready(out)) return true;
      if (pending_ == 0) return false;
      const Time next = next_event_tick();
      if (next > horizon) return false;
      advance_to_tick(next);
    }
  }

  /// Moves now() forward to `t` (>= now()) without firing anything.
  /// Only legal when no pending entry is due at or before `t`; used for
  /// run_until(horizon) semantics after the queue drains. Walks the
  /// cascade boundaries up to `t` (so entries re-file exactly as pop()
  /// would have re-filed them) and then jumps: once no boundary with
  /// work remains at or before `t`, every pending entry provably sits
  /// in a slot whose scan candidate stays ahead of `t`.
  void advance_to(Time t) {
    if (t <= now_) return;
    Expired unused;
    bool due = next_ready(unused);
    AHB_EXPECTS(!due);
    while (pending_ != 0) {
      const Time next = next_event_tick();
      if (next > t) break;
      advance_to_tick(next);
      due = next_ready(unused);
      AHB_EXPECTS(!due);  // an entry was due at or before t
    }
    // Only cancelled entries left: they would sit at slots the jump
    // leaves behind, so drop them all.
    if (pending_ == 0) clear();
    now_ = t;
  }

 private:
  static constexpr std::uint32_t kNoId = 0xffffffffu;
  static constexpr std::uint32_t kNoList = 0xffffffffu;  ///< far heap
  static constexpr int kLevelBits = 6;
  static constexpr int kSlots = 64;
  static constexpr int kLevels = 6;
  /// Total tick span the wheel can hold: 64^kLevels.
  static constexpr Time kSpanTicks = Time{1} << (kLevelBits * kLevels);
  static constexpr std::uint32_t kChunkEntries = 64;
  /// One chunk, so a small cluster's wheel (a chaos campaign builds one
  /// per run, for one or two participants) starts from a single
  /// 64-entry block and grows by doubling only as its lists need.
  static constexpr std::size_t kFirstBlockChunks = 1;
  /// Dead entries tolerated beyond the live count before a sweep.
  static constexpr std::size_t kSweepSlack = 64;

  struct Entry {
    Time when;
    std::uint64_t seq;
    std::uint32_t id;
    Payload payload;
  };

  struct Chunk {
    Chunk* next;
    std::uint32_t size;
    Entry entries[kChunkEntries];
  };

  /// One (level, slot, priority) list, at index
  /// (level * 64 + slot) * 2 + priority of lists_. Meaningful only while
  /// its bit in occupied_ is set; then its tail chunk is not empty.
  struct List {
    Chunk* head;
    Chunk* tail;
    std::uint64_t last_seq;  ///< seq of the tail entry
    std::uint32_t begin;     ///< first unconsumed entry of head (drain cursor)
    bool sorted;             ///< entries in ascending seq order
  };

  struct FarEntry {
    Entry entry;
    int priority;
  };

  struct BlockDelete {
    void operator()(Chunk* block) const { ::operator delete(block); }
  };

  static constexpr Time level_span(int k) {
    return Time{1} << (kLevelBits * k);  // slot width of level k
  }

  static constexpr std::uint32_t list_index(int level, int slot,
                                            int priority) {
    return static_cast<std::uint32_t>((level * kSlots + slot) * 2 + priority);
  }
  std::uint64_t& occupied_mask(std::uint32_t list) {
    return occupied_[list >> 7][list & 1];
  }
  static std::uint64_t slot_bit(std::uint32_t list) {
    return std::uint64_t{1} << ((list >> 1) & (kSlots - 1));
  }

  bool live(Handle h) const {
    return h.valid() && h.id < seq_of_.size() && seq_of_[h.id] == h.seq;
  }
  /// Posted entries (id kNoId) are never cancelled: always live.
  bool live(const Entry& e) const {
    return e.id == kNoId || seq_of_[e.id] == e.seq;
  }

  void retire(std::uint32_t id) {
    seq_of_[id] = 0;
    free_ids_.push_back(id);
  }

  Chunk* new_chunk() {
    Chunk* chunk = free_chunks_;
    if (chunk != nullptr) {
      free_chunks_ = chunk->next;
    } else {
      if (block_used_ == block_chunks_) {
        // Raw storage: chunks are implicit-lifetime aggregates, written
        // before they are read.
        block_chunks_ =
            block_chunks_ == 0 ? kFirstBlockChunks : block_chunks_ * 2;
        blocks_.emplace_back(static_cast<Chunk*>(
            ::operator new(block_chunks_ * sizeof(Chunk))));
        block_used_ = 0;
      }
      chunk = blocks_.back().get() + block_used_++;
    }
    chunk->next = nullptr;
    chunk->size = 0;
    return chunk;
  }

  void free_chunk(Chunk* chunk) {
    chunk->next = free_chunks_;
    free_chunks_ = chunk;
  }

  void free_chain(Chunk* chunk) {
    while (chunk != nullptr) {
      Chunk* next = chunk->next;
      free_chunk(chunk);
      chunk = next;
    }
  }

  /// The list an entry due at `when` files into, by its delta from now:
  /// level k holds deltas in [64^k, 64^(k+1)), slot index is the
  /// absolute tick sliced at that level. Entries due exactly now join
  /// the current level-0 slot, which is the one being drained; entries
  /// beyond the span go to the far heap (kNoList).
  std::uint32_t target(Time when, int priority) const {
    const Time delta = when - now_;
    if (delta >= kSpanTicks) return kNoList;
    const int level =
        delta == 0 ? 0
                   : (std::bit_width(static_cast<std::uint64_t>(delta)) - 1) /
                         kLevelBits;
    const int slot =
        static_cast<int>((when >> (kLevelBits * level)) & (kSlots - 1));
    return list_index(level, slot, priority);
  }

  /// Files an existing entry into its target list or the far heap.
  void place(const Entry& entry, int priority) {
    const std::uint32_t list = target(entry.when, priority);
    if (list == kNoList) {
      push_far(entry, priority);
    } else {
      append(list, entry.seq) = entry;
    }
  }

  /// Reserves the tail slot of list `index` for an entry with `seq`.
  Entry& append(std::uint32_t index, std::uint64_t seq) {
    List& list = lists_[index];
    std::uint64_t& occupied = occupied_mask(index);
    if ((occupied & slot_bit(index)) == 0) {
      occupied |= slot_bit(index);
      Chunk* chunk = new_chunk();
      list.head = chunk;
      list.tail = chunk;
      list.last_seq = seq;
      list.begin = 0;
      list.sorted = true;
    } else {
      if (seq < list.last_seq) list.sorted = false;
      list.last_seq = seq;
      if (list.tail->size == kChunkEntries) {
        list.tail->next = new_chunk();
        list.tail = list.tail->next;
      }
    }
    return list.tail->entries[list.tail->size++];
  }

  void push_far(const Entry& entry, int priority) {
    far_.push_back(FarEntry{entry, priority});
    std::push_heap(far_.begin(), far_.end(), far_later);
  }

  /// True iff `h`'s (live) entry is the tail entry of the list it was
  /// filed in — seqs are unique, so a match on the list's last seq is
  /// that entry even after a cascade re-created the list.
  bool is_newest(Handle h) {
    return h.list != kNoList &&
           (occupied_mask(h.list) & slot_bit(h.list)) != 0 &&
           lists_[h.list].last_seq == h.seq;
  }

  /// Files a new entry for pending id `id` (kNoId: a post) under a
  /// fresh seq.
  Handle file(std::uint32_t id, Time when, int priority,
              const Payload& payload) {
    const std::uint64_t seq = next_seq_++;
    if (id != kNoId) seq_of_[id] = seq;
    ++stored_;
    const std::uint32_t list = target(when, priority);
    if (list == kNoList) {
      push_far(Entry{when, seq, id, payload}, priority);
    } else {
      // Field by field into the list: no temporary to copy from.
      Entry& entry = append(list, seq);
      entry.when = when;
      entry.seq = seq;
      entry.id = id;
      entry.payload = payload;
    }
    return Handle{id, list, seq};
  }

  /// Takes the dead entry of handle `h` out: at once when it is the
  /// newest of its list (unless that would leave an empty chunk behind
  /// others); otherwise it stays, and a sweep runs once the dead
  /// outnumber the live.
  void unfile(Handle h, bool newest) {
    if (newest) {
      List& list = lists_[h.list];
      Chunk* tail = list.tail;
      if (tail->size > 1) {
        --tail->size;
        list.last_seq = tail->entries[tail->size - 1].seq;
        --stored_;
        return;
      }
      if (tail == list.head) {
        free_chunk(tail);
        occupied_mask(h.list) &= ~slot_bit(h.list);
        --stored_;
        return;
      }
    }
    if (stored_ - pending_ > pending_ + kSweepSlack) sweep();
  }

  /// Fires the next live entry due at the current tick: the level-0
  /// lists of the current slot, priority 0 first, consumed through
  /// their cursors. Releases each chunk the cursor leaves and each list
  /// it exhausts; returns false once both are gone.
  bool next_ready(Expired& out) {
    const int slot = static_cast<int>(now_ & (kSlots - 1));
    const std::uint64_t bit = std::uint64_t{1} << slot;
    for (int priority = 0; priority < 2; ++priority) {
      if ((occupied_[0][priority] & bit) == 0) continue;
      List& list = lists_[list_index(0, slot, priority)];
      while (true) {
        Chunk* head = list.head;
        if (list.begin == head->size) {
          if (head->next == nullptr) break;
          list.head = head->next;
          list.begin = 0;
          free_chunk(head);
          continue;
        }
        const Entry& entry = head->entries[list.begin++];
        --stored_;
        AHB_ASSERT(entry.when == now_);
        if (entry.id != kNoId) {
          if (seq_of_[entry.id] != entry.seq) continue;  // cancelled
          retire(entry.id);
        }
        --pending_;
        out.when = entry.when;
        out.priority = priority;
        out.seq = entry.seq;
        out.payload = entry.payload;
        return true;
      }
      free_chunk(list.head);
      occupied_[0][priority] &= ~bit;
    }
    return false;
  }

  /// The next tick that needs attention: per level, the start of the
  /// first occupied slot still ahead in the current window, or — since
  /// the slot ring recycles — the start of the first occupied slot in
  /// the *next* window when only slots at or behind the current index
  /// hold work (an entry with delta just under the level's span wraps
  /// to a slot index <= the current one, including the current slot
  /// itself). Returned ticks are cascade boundaries, not necessarily
  /// due entries: advancing there either stages level-0 work or
  /// re-files a coarser slot, and the scan repeats.
  Time next_event_tick() const {
    // A far entry needs attention once it comes within span.
    Time best = far_.empty() ? -1 : far_.front().entry.when - kSpanTicks + 1;
    for (int k = 0; k < kLevels; ++k) {
      const std::uint64_t occupied = occupied_[k][0] | occupied_[k][1];
      if (occupied == 0) continue;
      const int cur =
          static_cast<int>((now_ >> (kLevelBits * k)) & (kSlots - 1));
      const Time window = now_ & ~(level_span(k + 1) - 1);
      const std::uint64_t ahead =
          cur == kSlots - 1 ? 0
                            : occupied & (~std::uint64_t{0} << (cur + 1));
      Time cand;
      if (ahead != 0) {
        cand = window +
               static_cast<Time>(std::countr_zero(ahead)) * level_span(k);
      } else {
        // All occupied slots are at or behind the current index: their
        // entries fire in the next cycle of this level's ring.
        cand = window + level_span(k + 1) +
               static_cast<Time>(std::countr_zero(occupied)) * level_span(k);
      }
      if (best < 0 || cand < best) best = cand;
    }
    AHB_EXPECTS(best >= 0 && "next_event_tick with nothing pending");
    return best;
  }

  /// Re-files the live entries of one coarse slot (both priorities)
  /// one level down or more, dropping the dead ones.
  void cascade(int level, int slot) {
    const std::uint64_t bit = std::uint64_t{1} << slot;
    for (int priority = 0; priority < 2; ++priority) {
      if ((occupied_[level][priority] & bit) == 0) continue;
      occupied_[level][priority] &= ~bit;
      Chunk* chunk = lists_[list_index(level, slot, priority)].head;
      while (chunk != nullptr) {
        for (std::uint32_t i = 0; i < chunk->size; ++i) {
          const Entry& entry = chunk->entries[i];
          if (live(entry)) {
            place(entry, priority);  // delta < 64^level: files lower
          } else {
            --stored_;
          }
        }
        Chunk* next = chunk->next;
        free_chunk(chunk);  // after its entries are read
        chunk = next;
      }
    }
  }

  /// Jumps now() to tick `t`, cascading every level whose slot boundary
  /// `t` starts (highest level first, so cascades can deposit into the
  /// lower-level slots cascaded right after), filing the far entries
  /// that came within span, and putting the new level-0 slot's lists in
  /// seq order for the drain.
  void advance_to_tick(Time t) {
    now_ = t;
    for (int k = kLevels - 1; k >= 1; --k) {
      if ((t & (level_span(k) - 1)) == 0) {
        cascade(k, static_cast<int>((t >> (kLevelBits * k)) & (kSlots - 1)));
      }
    }
    while (!far_.empty() && far_.front().entry.when - now_ < kSpanTicks) {
      std::pop_heap(far_.begin(), far_.end(), far_later);
      const FarEntry far = far_.back();
      far_.pop_back();
      if (live(far.entry)) {
        place(far.entry, far.priority);
      } else {
        --stored_;
      }
    }
    const int slot = static_cast<int>(now_ & (kSlots - 1));
    for (int priority = 0; priority < 2; ++priority) {
      List& list = lists_[list_index(0, slot, priority)];
      if ((occupied_[0][priority] >> slot & 1) != 0 && !list.sorted) {
        sort_list(list);
      }
    }
  }

  /// Heap order of the far entries: earliest expiry on top.
  static bool far_later(const FarEntry& a, const FarEntry& b) {
    return a.entry.when > b.entry.when;
  }

  /// Rewrites an undrained list in ascending seq order, in place.
  void sort_list(List& list) {
    scratch_.clear();
    for (Chunk* chunk = list.head; chunk != nullptr; chunk = chunk->next) {
      scratch_.insert(scratch_.end(), chunk->entries,
                      chunk->entries + chunk->size);
    }
    std::sort(scratch_.begin(), scratch_.end(),
              [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
    const Entry* from = scratch_.data();
    for (Chunk* chunk = list.head; chunk != nullptr; chunk = chunk->next) {
      std::copy_n(from, chunk->size, chunk->entries);
      from += chunk->size;
    }
    list.last_seq = scratch_.back().seq;
    list.sorted = true;
  }

  /// Drops every dead entry: each list is compacted in place from its
  /// cursor, trailing chunks released, and the far heap rebuilt. Runs
  /// once the dead outnumber the live, so its O(stored) cost is paid
  /// for by the cancels that made them.
  void sweep() {
    for (int level = 0; level < kLevels; ++level) {
      for (int priority = 0; priority < 2; ++priority) {
        for (std::uint64_t bits = occupied_[level][priority]; bits != 0;
             bits &= bits - 1) {
          const int slot = std::countr_zero(bits);
          if (!compact(lists_[list_index(level, slot, priority)])) {
            occupied_[level][priority] &= ~(std::uint64_t{1} << slot);
          }
        }
      }
    }
    const auto dead = std::remove_if(
        far_.begin(), far_.end(),
        [this](const FarEntry& far) { return !live(far.entry); });
    stored_ -= static_cast<std::size_t>(far_.end() - dead);
    far_.erase(dead, far_.end());
    std::make_heap(far_.begin(), far_.end(), far_later);
  }

  /// Moves a list's live entries to its front, keeping their order;
  /// returns false (list released) when none is left.
  bool compact(List& list) {
    Chunk* write = list.head;
    std::uint32_t written = 0;
    std::uint32_t begin = list.begin;
    for (Chunk* read = list.head; read != nullptr; read = read->next) {
      for (std::uint32_t i = begin; i < read->size; ++i) {
        const Entry& entry = read->entries[i];
        if (!live(entry)) {
          --stored_;
          continue;
        }
        if (written == kChunkEntries) {
          write = write->next;  // never passes `read`
          written = 0;
        }
        Entry* to = &write->entries[written++];
        if (to != &entry) *to = entry;
      }
      begin = 0;
    }
    free_chain(write->next);
    write->next = nullptr;
    write->size = written;
    list.tail = write;
    list.begin = 0;
    if (written != 0) {
      list.last_seq = write->entries[written - 1].seq;
      return true;
    }
    free_chunk(write);
    return false;
  }

  /// Releases every list and far entry (all of them dead).
  void clear() {
    for (int level = 0; level < kLevels; ++level) {
      for (int priority = 0; priority < 2; ++priority) {
        for (std::uint64_t bits = occupied_[level][priority]; bits != 0;
             bits &= bits - 1) {
          free_chain(
              lists_[list_index(level, std::countr_zero(bits), priority)]
                  .head);
        }
        occupied_[level][priority] = 0;
      }
    }
    far_.clear();
    stored_ = 0;
  }

  Time now_;
  std::uint64_t next_seq_ = 1;
  std::size_t pending_ = 0;
  std::size_t stored_ = 0;
  /// Per id, the seq of its live entry; 0 while the id is free.
  std::vector<std::uint64_t> seq_of_;
  std::vector<std::uint32_t> free_ids_;
  std::uint64_t occupied_[kLevels][2] = {};  ///< [level][priority] slot bits
  List lists_[kLevels * kSlots * 2];  // see List: read only while occupied
  std::vector<FarEntry> far_;  ///< min-heap by expiry (far_later)
  std::vector<std::unique_ptr<Chunk, BlockDelete>> blocks_;
  std::size_t block_chunks_ = 0;  ///< chunks in the newest block
  std::size_t block_used_ = 0;    ///< of which handed out
  Chunk* free_chunks_ = nullptr;
  std::vector<Entry> scratch_;  ///< sort_list buffer
};

}  // namespace ahb::sim
