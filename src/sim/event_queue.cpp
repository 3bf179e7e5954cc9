#include "sim/event_queue.hpp"

#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_set>

#include "common/annotations.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"
#include "snapshot/codec.hpp"

namespace simty::sim {

namespace {

// Transparent FNV-1a hasher/equality so interner lookups hash the incoming
// string_view directly — the shared-lock fast path allocates nothing.
struct LabelHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return static_cast<std::size_t>(common::fnv1a64(s));
  }
  // Interner-only overload for the pool's own elements; never on the
  // per-event path.
  // simty-lint: allow(string-label)
  std::size_t operator()(const std::string& s) const noexcept {
    return (*this)(std::string_view(s));
  }
};

struct LabelEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept {
    return a == b;
  }
};

}  // namespace

const char* intern_label(std::string_view label) {
  // Node-based set: element addresses are stable across rehashing. The pool
  // is global (labels outlive every queue) and read-mostly — after warmup
  // every lookup hits the shared-lock fast path, so labeled events do not
  // serialize fleet shards on a mutex.
  static std::shared_mutex mu;
  // The interner is the one sanctioned owner of label strings: each label is
  // copied exactly once, ever, and the hot path only sees the c_str().
  // simty-lint: allow(string-label, hot-path-owning)
  static std::unordered_set<std::string, LabelHash, LabelEq> pool SIMTY_GUARDED_BY(mu);
  {
    const std::shared_lock<std::shared_mutex> read(mu);
    const auto it = pool.find(label);
    // Membership probe, not iteration — order never observed.
    // simty-lint: allow(unordered-iter)
    if (it != pool.end()) return it->c_str();
  }
  const std::unique_lock<std::shared_mutex> write(mu);
  return pool.emplace(label).first->c_str();
}

EventQueue::EventQueue() : EventQueue(nullptr) {}

EventQueue::EventQueue(common::Arena* arena)
    : keys_(arena), callbacks_(arena), meta_(arena), armed_words_(arena) {
  // Physical indices 0..kRoot-1 are padding so sibling groups are
  // cache-line-aligned; their keys are never read.
  keys_.resize(kRoot);
}

EventId EventQueue::schedule(TimePoint when, EventPriority priority, EventFn cb,
                             const char* label) {
  SIMTY_CHECK_MSG(static_cast<bool>(cb), "EventQueue::schedule: empty callback");
  const std::uint64_t seq = next_seq_++;
  SIMTY_CHECK_MSG(seq <= kMaxSeq, "EventQueue: sequence space exhausted");
  std::uint32_t idx = free_head_;
  if (idx != kNilSlot) {
    // Recycled slot: its slab lines are cold after a long churn. Kick off
    // both loads, run the sift-up while they are in flight, and only then
    // touch the slab (the free-list link lives in the meta line just
    // fetched).
    __builtin_prefetch(&callbacks_[idx], 1);
    __builtin_prefetch(&meta_[idx], 1);
    heap_push(Key{static_cast<std::uint64_t>(when.us()) ^ kWhenBias,
                  (static_cast<std::uint64_t>(priority) << 60) | (seq << 32) | idx});
    free_head_ = meta_[idx].next_free;
    meta_[idx].next_free = kNilSlot;
  } else {
    idx = acquire_slot();
    heap_push(Key{static_cast<std::uint64_t>(when.us()) ^ kWhenBias,
                  (static_cast<std::uint64_t>(priority) << 60) | (seq << 32) | idx});
  }
  callbacks_[idx] = std::move(cb);
  meta_[idx].label = label != nullptr ? label : "";
  set_armed(idx);
  ++live_;
  return EventId{(static_cast<std::uint64_t>(meta_[idx].generation) << 32) | idx};
}

bool EventQueue::cancel(EventId id) {
  const auto idx = static_cast<std::uint32_t>(id.value & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id.value >> 32);
  if (idx >= callbacks_.size()) return false;
  if (!armed(idx) || meta_[idx].generation != gen) return false;
  // Lazy cancellation: tombstone the slot; the heap node is recycled when
  // it surfaces at the root. Drop the callback now so captured resources
  // are released at cancel time, not at some later pop.
  clear_armed(idx);
  callbacks_[idx].reset();
  --live_;
  prune_root();
  return true;
}

TimePoint EventQueue::next_time() const {
  SIMTY_CHECK_MSG(live_ > 0, "EventQueue::next_time on empty queue");
  // live_ > 0 => the heap root is live (prune invariant maintained after
  // every heap mutation).
  return key_time(keys_[kRoot]);
}

EventQueue::Fired EventQueue::pop() {
  SIMTY_CHECK_MSG(live_ > 0, "EventQueue::pop on empty queue");
  const Key key = keys_[kRoot];
  const std::uint32_t slot = key_slot(key);
  // Overlap the two random slab touches (callback move-out, meta release)
  // with the root sift: issue the loads, fix the heap, then read the slab.
  __builtin_prefetch(&callbacks_[slot], 1);
  __builtin_prefetch(&meta_[slot], 1);
  heap_remove_root();
  Fired fired{key_time(key), std::move(callbacks_[slot]), meta_[slot].label,
              key_priority(key)};
  release_slot(slot);
  --live_;
  prune_root();
  // A pop is usually followed by another: start fetching the next root's
  // slab lines so the next pop's payload access is already in flight.
  if (!heap_empty()) {
    const std::uint32_t next = key_slot(keys_[kRoot]);
    __builtin_prefetch(&callbacks_[next], 1);
    __builtin_prefetch(&meta_[next], 1);
  }
  return fired;
}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t idx = free_head_;
    free_head_ = meta_[idx].next_free;
    meta_[idx].next_free = kNilSlot;
    return idx;
  }
  SIMTY_CHECK_MSG(callbacks_.size() < kNilSlot, "EventQueue: slab index space exhausted");
  const auto idx = static_cast<std::uint32_t>(callbacks_.size());
  callbacks_.emplace_back();
  meta_.emplace_back();
  if ((idx & 63u) == 0) armed_words_.push_back(0);
  return idx;
}

void EventQueue::release_slot(std::uint32_t idx) {
  callbacks_[idx].reset();
  clear_armed(idx);
  SlotMeta& m = meta_[idx];
  m.label = "";
  // Invalidate every outstanding EventId naming this slot before it is
  // recycled (cancel-after-fire must return false, not hit the new tenant).
  ++m.generation;
  m.next_free = free_head_;
  free_head_ = idx;
}

void EventQueue::heap_push(Key key) {
  keys_.push_back(key);
  std::size_t pos = keys_.size() - 1;
  if (pos > kRoot) {
    std::size_t parent = (pos + 8) / 4;
    if (key_less(key, keys_[parent])) {
      // The entry ascends at least one level; a near-term event over a deep
      // far-future backlog usually ascends most of the way. Ancestor
      // positions are pure arithmetic — no data dependency — so issue the
      // whole chain of prefetches now and overlap what would otherwise be
      // one serial cache miss per level.
      for (std::size_t a = (parent + 8) / 4; a > kRoot; a = (a + 8) / 4) {
        __builtin_prefetch(&keys_[a]);
      }
      // Hole-based sift-up: shift losers down, write the new entry once.
      do {
        keys_[pos] = keys_[parent];
        pos = parent;
        parent = (pos + 8) / 4;
      } while (pos > kRoot && key_less(key, keys_[parent]));
    }
  }
  keys_[pos] = key;
}

void EventQueue::sift_down(std::size_t pos) {
  const std::size_t n = keys_.size();
  const Key key = keys_[pos];
  const std::size_t start = pos;
  // Bottom-up sift (Wegener's heapsort trick): the sifted key comes from
  // the heap tail, so it almost always belongs near a leaf. Walk the
  // min-child path all the way down without comparing against `key` —
  // that per-level compare is the one unpredictable branch in the classic
  // loop — then sift the key back up the hole path (expected O(1) steps).
  for (;;) {
    const std::size_t first = 4 * pos - 8;
    if (first + 3 < n) {
      // The grandchildren of a sibling group are 16 contiguous keys (4
      // cache lines): prefetch them all before picking the min child, so
      // the next level's loads are in flight regardless of which child
      // wins. The branchless min below serializes the descent on a cmov
      // chain — without this prefetch each level would pay a full cache
      // miss back to back.
      const std::size_t grand = 4 * first - 8;
      if (grand < n) {
        __builtin_prefetch(&keys_[grand]);
        __builtin_prefetch(&keys_[grand] + 4);
        __builtin_prefetch(&keys_[grand] + 8);
        __builtin_prefetch(&keys_[grand] + 12);
      }
      // Full sibling group: branchless min-of-4 on the widened keys.
      KeyWord best_w = key_word(keys_[first]);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < first + 4; ++c) {
        const KeyWord w = key_word(keys_[c]);
        const bool lt = w < best_w;
        best = lt ? c : best;
        best_w = lt ? w : best_w;
      }
      keys_[pos] = keys_[best];
      pos = best;
    } else if (first < n) {
      std::size_t best = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        if (key_less(keys_[c], keys_[best])) best = c;
      }
      keys_[pos] = keys_[best];
      pos = best;
    } else {
      break;
    }
  }
  while (pos > start) {
    const std::size_t parent = (pos + 8) / 4;
    if (!key_less(key, keys_[parent])) break;
    keys_[pos] = keys_[parent];
    pos = parent;
  }
  keys_[pos] = key;
}

void EventQueue::heap_remove_root() {
  const std::size_t tail = keys_.size() - 1;
  if (tail != kRoot) keys_[kRoot] = keys_[tail];
  keys_.pop_back();
  if (tail != kRoot) sift_down(kRoot);
}

void EventQueue::prune_root() {
  while (!heap_empty() && !armed(key_slot(keys_[kRoot]))) {
    release_slot(key_slot(keys_[kRoot]));
    heap_remove_root();
  }
}

void EventQueue::restore(snapshot::SectionReader& s) {
  // Wholesale replacement: anything the owner scheduled during (re)construction
  // is discarded along with its slots.
  snapshot::read_fields(s, *this);
  const std::size_t slots = meta_.size();
  SIMTY_CHECK_MSG(slots < kNilSlot, "EventQueue::restore: slot count out of range");
  callbacks_.clear();
  callbacks_.resize(slots);

  // Cross-checks: every slot reference and cursor must be in range, the
  // free list must terminate, and the armed population must equal live_ —
  // a corrupted snapshot fails here, not as UB later.
  for (const SlotMeta& m : meta_) {
    SIMTY_CHECK_MSG(m.next_free == kNilSlot || m.next_free < slots,
                    "EventQueue::restore: free-list link out of range");
  }
  SIMTY_CHECK_MSG(armed_words_.size() == (slots + 63) / 64,
                  "EventQueue::restore: bit-word count mismatch");
  for (std::size_t i = kRoot; i < keys_.size(); ++i) {
    SIMTY_CHECK_MSG(key_slot(keys_[i]) < slots,
                    "EventQueue::restore: heap key slot out of range");
  }
  SIMTY_CHECK_MSG(free_head_ == kNilSlot || free_head_ < slots,
                  "EventQueue::restore: free head out of range");
  SIMTY_CHECK_MSG(next_seq_ >= 1 && next_seq_ <= kMaxSeq + 1,
                  "EventQueue::restore: sequence counter out of range");
  std::size_t free_len = 0;
  for (std::uint32_t f = free_head_; f != kNilSlot; f = meta_[f].next_free) {
    SIMTY_CHECK_MSG(++free_len <= slots, "EventQueue::restore: free-list cycle");
  }
  std::size_t armed_count = 0;
  for (const std::uint64_t word : armed_words_) {
    armed_count += static_cast<std::size_t>(__builtin_popcountll(word));
  }
  SIMTY_CHECK_MSG(armed_count == live_,
                  "EventQueue::restore: live count does not match armed bits");
}

void EventQueue::rebind(EventId id, EventFn cb) {
  SIMTY_CHECK_MSG(static_cast<bool>(cb), "EventQueue::rebind: empty callback");
  const auto idx = static_cast<std::uint32_t>(id.value & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id.value >> 32);
  SIMTY_CHECK_MSG(idx < callbacks_.size() && armed(idx) && meta_[idx].generation == gen,
                  "EventQueue::rebind: id does not name a restored live event");
  SIMTY_CHECK_MSG(!callbacks_[idx], "EventQueue::rebind: event already bound");
  callbacks_[idx] = std::move(cb);
}

bool EventQueue::fully_bound() const {
  for (std::uint32_t i = 0; i < callbacks_.size(); ++i) {
    if (armed(i) && !callbacks_[i]) return false;
  }
  return true;
}

}  // namespace simty::sim
