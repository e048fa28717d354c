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
// priority implied by the list holding them; 40 bytes for the heartbeat
// engine's payload — in one list per (level, slot, priority). A list is
// a chain of 64-entry chunks carved from blocks that never move and
// double in size from one chunk, so arming writes one entry at a list's
// tail, firing reads the due lists front to back, and an empty wheel
// allocates nothing.
//
// Ids. retime() of a handle that is not live arms a new entry under a
// fresh id; post() files one that is never cancelled (a delivery, a
// scheduled fault) with no id, so it takes and retires nothing. An id
// names exactly one stored entry: a dense per-id array holds that
// entry's logical key (when, seq) and its list, and seq 0 while it is
// cancelled. cancel() removes an entry at once when it is still the
// newest of its list (its seq is the list's last) — the common case in
// a small cluster, where a deadline is often alone in its slot.
// Otherwise the entry stays, dead, until its list is cascaded, drained
// or swept, and a cancel that leaves more dead entries than live ones
// (plus kSweepSlack) compacts every list, so stored() stays below twice
// the live count at the latest cancel plus a constant, at amortized
// O(1) per cancel.
//
// Retiming. A live entry whose deadline stays at its tick or moves
// later stays where it is; only its id's logical key changes, to the
// new when and a fresh seq. Every list is reached before the ticks it
// holds, so the entry is met no later than its new deadline: a cascade,
// far filing or drain that meets it re-files it under its logical key,
// and a level-0 list holding an entry retimed within its own tick is
// sorted again when that tick comes. A participant re-arming its
// deadline on every beat thus keeps one entry, not one per beat. Any
// other retime takes the entry out as cancel() does and files it anew:
// a deadline that moves earlier, changes priority, waits in the far
// heap or is retimed within the tick being drained, and the newest
// entry of a list, which leaves no dead entry behind.
//
// Firing. pop() steps now() from one cascade boundary with work to the
// next up to its horizon, and drains the due level-0 lists in place
// through a cursor, delivery priority first; a chunk is released as the
// cursor leaves it, and same-tick arms append behind the cursor. Arms
// append in sequence order, so only a list that a cascade, a far filing
// or a retime left out of order is sorted, once, when its tick comes.
//
// Determinism contract: entries due at the same tick fire ordered by
// (priority, arm-sequence) — deliveries at priority 0 outrun timers at
// priority 1, ties fall back to FIFO arm order, and posts and arms
// draw from one sequence — and retime() of a live handle is
// indistinguishable from cancel() followed by a fresh arm. The
// heartbeat engine's bit-for-bit reproducible event interleavings rest
// on this; tests/sim_timer_wheel_test.cpp pins the firing stream
// against a sorted-set oracle keyed by (when, priority, seq).
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

  /// Reference to a pending entry: its id and its arm sequence number.
  /// Default-constructed handles are invalid; cancel() of an invalid,
  /// fired or cancelled handle is a no-op.
  struct Handle {
    std::uint32_t id = kNoId;
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

  Time now() const { return now_; }
  /// Live entries: armed, not yet fired or cancelled.
  std::size_t pending() const { return pending_; }
  /// Entries held, cancelled ones not yet dropped included.
  std::size_t stored() const { return stored_; }

  /// Files an entry that is never cancelled (a message delivery, a
  /// scheduled fault) at absolute tick `when` (>= now()). Priority is 0
  /// (deliveries) or 1 (timers) — the two lanes the engine's
  /// receive-priority tiebreak needs. It takes the next seq like an
  /// armed entry, so it fires in the same (when, priority, seq) order,
  /// but it holds no id: posting and firing it touch no per-id state,
  /// and there is no handle. O(1) within the wheel span of 64^kLevels
  /// ticks, O(log k) beyond it.
  void post(Time when, int priority, const Payload& payload) {
    AHB_EXPECTS(when >= now_);
    AHB_EXPECTS(priority == 0 || priority == 1);
    ++pending_;
    file_new(kNoId, when, priority, payload);
  }

  /// Cancels a pending entry; returns true if it was still pending.
  /// O(1) amortized: an entry that is still the newest of its list is
  /// dropped at once, any other later, when its list is cascaded,
  /// drained or swept.
  bool cancel(Handle h) {
    if (!live(h)) return false;
    --pending_;
    if (unfile(h.id)) free_ids_.push_back(h.id);
    return true;
  }

  /// Arms `h`'s entry at `when` (>= now()) under a fresh seq, as
  /// cancel(h) followed by a fresh arm would: an invalid, fired or
  /// cancelled handle arms a new entry, and a live one keeps the payload
  /// it was armed with (`payload` must be that one). A deadline that
  /// stays at its tick or moves later leaves the entry where it is and
  /// records the new key (see Retiming above), so re-arming a deadline
  /// on every beat leaves no dead entries.
  Handle retime(Handle h, Time when, int priority, const Payload& payload) {
    AHB_EXPECTS(when >= now_);
    AHB_EXPECTS(priority == 0 || priority == 1);
    if (!live(h)) {
      ++pending_;
      return file_new(take_id(), when, priority, payload);
    }
    Armed& armed = armed_[h.id];
    const std::uint32_t list = armed.list;
    if (list == kNoList || (list & 1) != static_cast<std::uint32_t>(priority) ||
        when < armed.when || (when == now_ && draining(list)) ||
        (is_newest(armed) && detachable(list))) {
      // A dead entry left behind keeps its id until it is dropped.
      const std::uint32_t id = unfile(h.id) ? h.id : take_id();
      return file_new(id, when, priority, payload);
    }
    // A level-0 list holds one tick: a retime within it reorders it.
    if (list < 2 * kSlots && target(when, priority) == list) {
      lists_[list].sorted = false;
    }
    armed.when = when;
    armed.seq = next_seq_++;
    return Handle{h.id, armed.seq};
  }

  /// Pops the next live entry with when <= horizon, advancing now() to
  /// its tick. Entries fire in exact (when, priority, seq) order. When
  /// none is due by `horizon`, returns false with now() moved to
  /// `horizon` (never back): the loop has walked every cascade boundary
  /// with work at or before it, so every pending entry sits in a slot
  /// whose scan candidate stays ahead of `horizon`.
  bool pop(Time horizon, Expired& out) {
    while (true) {
      if (next_ready(out)) return true;
      if (pending_ == 0) break;
      const Time next = next_event_tick();
      if (next > horizon) break;
      advance_to_tick(next);
    }
    // Only cancelled entries left: they would sit at slots the jump
    // leaves behind, so drop them all.
    if (pending_ == 0) clear();
    now_ = std::max(now_, horizon);
    return false;
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

 public:
  /// Bytes per stored entry, for callers that keep it small.
  static constexpr std::size_t kEntryBytes = sizeof(Entry);

 private:
  /// Per id: the logical key of its one stored entry (which differs
  /// from the entry's own after a retime) and the list holding it
  /// (kNoList: the far heap). seq is 0 while the id is cancelled or
  /// free.
  struct Armed {
    Time when;
    std::uint64_t seq;
    std::uint32_t list;
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
  /// True iff `list` is a level-0 list of the current tick: the one
  /// drained now, which a retime within the tick cannot reorder.
  bool draining(std::uint32_t list) const {
    return list < 2 * kSlots &&
           (list >> 1) == static_cast<std::uint32_t>(now_ & (kSlots - 1));
  }

  bool live(Handle h) const {
    return h.id < armed_.size() && armed_[h.id].seq == h.seq;
  }

  std::uint32_t take_id() {
    if (free_ids_.empty()) {
      armed_.push_back(Armed{});
      return static_cast<std::uint32_t>(armed_.size() - 1);
    }
    const std::uint32_t id = free_ids_.back();
    free_ids_.pop_back();
    return id;
  }

  /// Drops a stored entry of a cancelled id, which frees the id.
  void drop(std::uint32_t id) {
    --stored_;
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

  /// True iff the (live) entry of `armed` is the tail entry of its list
  /// and holds its logical key — seqs are unique, so a match on the
  /// list's last seq is that entry.
  bool is_newest(const Armed& armed) const {
    return armed.list != kNoList && lists_[armed.list].last_seq == armed.seq;
  }

  /// True iff the tail entry of list `index` can be taken out at once:
  /// it does not sit alone in a chunk behind others.
  bool detachable(std::uint32_t index) const {
    const List& list = lists_[index];
    return list.tail->size > 1 || list.tail == list.head;
  }

  /// Stores a new entry for id `id` (kNoId: a post) under a fresh seq.
  Handle file_new(std::uint32_t id, Time when, int priority,
                  const Payload& payload) {
    const std::uint64_t seq = next_seq_++;
    ++stored_;
    if (id != kNoId) {
      armed_[id].when = when;
      armed_[id].seq = seq;
    }
    file(when, seq, id, payload, priority);
    return Handle{id, seq};
  }

  /// The one filing path, for new and re-filed entries alike: appends
  /// the entry to its target list or pushes it on the far heap, and
  /// records where an armed entry went. Written field by field into the
  /// list: no temporary to copy from.
  void file(Time when, std::uint64_t seq, std::uint32_t id,
            const Payload& payload, int priority) {
    const std::uint32_t list = target(when, priority);
    if (id != kNoId) armed_[id].list = list;
    if (list == kNoList) {
      far_.push_back(FarEntry{Entry{when, seq, id, payload}, priority});
      std::push_heap(far_.begin(), far_.end(), far_later);
      return;
    }
    Entry& entry = append(list, seq);
    entry.when = when;
    entry.seq = seq;
    entry.id = id;
    entry.payload = payload;
  }

  /// Re-files an entry a cascade or far filing takes out, or one met
  /// ahead of its retimed deadline, under its logical key; drops it
  /// when cancelled.
  void refile(const Entry& entry, int priority) {
    if (entry.id == kNoId) {
      return file(entry.when, entry.seq, kNoId, entry.payload, priority);
    }
    const Armed& armed = armed_[entry.id];
    if (armed.seq == 0) return drop(entry.id);
    file(armed.when, armed.seq, entry.id, entry.payload, priority);
  }

  /// Cancels id's entry: drops it at once when it is the newest of its
  /// list (unless that would leave an empty chunk behind others) and
  /// returns true — the id is free; otherwise the dead entry keeps the
  /// id, and a sweep runs once the dead outnumber the live.
  bool unfile(std::uint32_t id) {
    Armed& armed = armed_[id];
    const bool newest = is_newest(armed) && detachable(armed.list);
    armed.seq = 0;
    if (!newest) {
      if (stored_ - pending_ > pending_ + kSweepSlack) sweep();
      return false;
    }
    --stored_;
    List& list = lists_[armed.list];
    Chunk* tail = list.tail;
    if (tail->size > 1) {
      --tail->size;
      list.last_seq = tail->entries[tail->size - 1].seq;
    } else {
      free_chunk(tail);
      occupied_mask(armed.list) &= ~slot_bit(armed.list);
    }
    return true;
  }

  /// Fires the next live entry due at the current tick: the level-0
  /// lists of the current slot, priority 0 first, consumed through
  /// their cursors; cancelled entries are dropped and entries retimed
  /// later re-filed as they are met. Releases each chunk the cursor
  /// leaves and each list it exhausts; returns false once both are gone.
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
        AHB_ASSERT(entry.when == now_);
        if (entry.id != kNoId) {
          Armed& armed = armed_[entry.id];
          if (armed.seq == 0 || armed.when != now_) {
            refile(entry, priority);  // cancelled, or retimed later
            continue;
          }
          AHB_ASSERT(armed.seq == entry.seq);
          armed.seq = 0;
          free_ids_.push_back(entry.id);
        }
        --stored_;
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

  /// Re-files the entries of one coarse slot (both priorities) one
  /// level down or more, dropping the cancelled ones.
  void cascade(int level, int slot) {
    const std::uint64_t bit = std::uint64_t{1} << slot;
    for (int priority = 0; priority < 2; ++priority) {
      if ((occupied_[level][priority] & bit) == 0) continue;
      occupied_[level][priority] &= ~bit;
      Chunk* chunk = lists_[list_index(level, slot, priority)].head;
      while (chunk != nullptr) {
        for (std::uint32_t i = 0; i < chunk->size; ++i) {
          refile(chunk->entries[i], priority);
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
      refile(far.entry, far.priority);
    }
    const int slot = static_cast<int>(now_ & (kSlots - 1));
    for (int priority = 0; priority < 2; ++priority) {
      List& list = lists_[list_index(0, slot, priority)];
      if ((occupied_[0][priority] >> slot & 1) == 0 || list.sorted) continue;
      if (compact(list, priority, true)) {
        sort_list(list);
      } else {
        occupied_[0][priority] &= ~(std::uint64_t{1} << slot);
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
          if (!compact(lists_[list_index(level, slot, priority)], priority,
                       false)) {
            occupied_[level][priority] &= ~(std::uint64_t{1} << slot);
          }
        }
      }
    }
    // One application per entry, so each dead one is dropped once.
    const auto dead =
        std::remove_if(far_.begin(), far_.end(), [this](const FarEntry& far) {
          const std::uint32_t id = far.entry.id;
          if (id == kNoId || armed_[id].seq != 0) return false;
          drop(id);
          return true;
        });
    far_.erase(dead, far_.end());
    std::make_heap(far_.begin(), far_.end(), far_later);
  }

  /// Moves a list's kept entries to its front, in order, from its
  /// cursor, dropping the cancelled ones. With `settle` (the list is
  /// due now and about to be sorted) entries retimed past now are
  /// re-filed as they are met and the rest take their logical seq.
  /// Returns false (list released) when none is left.
  bool compact(List& list, int priority, bool settle) {
    Chunk* write = list.head;
    std::uint32_t written = 0;
    std::uint32_t begin = list.begin;
    for (Chunk* read = list.head; read != nullptr; read = read->next) {
      for (std::uint32_t i = begin; i < read->size; ++i) {
        Entry& entry = read->entries[i];
        if (entry.id != kNoId) {
          const Armed& armed = armed_[entry.id];
          if (armed.seq == 0) {
            drop(entry.id);
            continue;
          }
          if (settle) {
            if (armed.when != now_) {
              refile(entry, priority);
              continue;
            }
            entry.seq = armed.seq;
          }
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

  /// Releases every list and far entry (all of them dead) and frees
  /// every id.
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
    armed_.clear();
    free_ids_.clear();
    stored_ = 0;
  }

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t pending_ = 0;
  std::size_t stored_ = 0;
  std::vector<Armed> armed_;  ///< by id
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
