#include "sim/event_queue.hpp"

#include <algorithm>
#include <mutex>
#include <set>
#include <string>

#include "common/annotations.hpp"
#include "common/check.hpp"
#include "snapshot/codec.hpp"

namespace simty::sim {

const char* intern_label(std::string_view label) {
  // A node-based set keeps element addresses stable; the pool is global
  // because labels outlive every queue. The interner is the one sanctioned
  // owner of label strings: each is copied once, and the hot path only sees
  // the c_str().
  static std::mutex mu;
  // simty-lint: allow(string-label, hot-path-owning)
  static std::set<std::string, std::less<>> pool SIMTY_GUARDED_BY(mu);
  const std::lock_guard<std::mutex> lock(mu);
  const auto it = pool.find(label);
  return (it != pool.end() ? it : pool.emplace(label).first)->c_str();
}

EventQueue::EventQueue() : EventQueue(nullptr) {}

EventQueue::EventQueue(common::Arena* arena)
    : keys_(arena), callbacks_(arena), meta_(arena), armed_words_(arena) {}

EventId EventQueue::schedule(TimePoint when, EventPriority priority, EventFn cb,
                             const char* label) {
  SIMTY_CHECK_MSG(static_cast<bool>(cb), "EventQueue::schedule: empty callback");
  const std::uint64_t seq = next_seq_++;
  SIMTY_CHECK_MSG(seq <= kMaxSeq, "EventQueue: sequence space exhausted");
  std::uint32_t idx = free_head_;
  if (idx != kNilSlot) {
    free_head_ = meta_[idx].next_free;
    meta_[idx].next_free = kNilSlot;
  } else {
    SIMTY_CHECK_MSG(callbacks_.size() < kNilSlot, "EventQueue: slab index space exhausted");
    idx = static_cast<std::uint32_t>(callbacks_.size());
    callbacks_.emplace_back();
    meta_.emplace_back();
    if ((idx & 63u) == 0) armed_words_.push_back(0);
  }
  heap_push(Key{static_cast<std::uint64_t>(when.us()) ^ kWhenBias,
                (static_cast<std::uint64_t>(priority) << 60) | (seq << 32) | idx});
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
  return key_time(keys_[0]);
}

EventQueue::Fired EventQueue::pop() {
  SIMTY_CHECK_MSG(live_ > 0, "EventQueue::pop on empty queue");
  const Key key = keys_[0];
  const std::uint32_t slot = key_slot(key);
  heap_remove_root();
  Fired fired{key_time(key), std::move(callbacks_[slot]), meta_[slot].label,
              key_priority(key)};
  release_slot(slot);
  --live_;
  prune_root();
  return fired;
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
  // Hole-based sift-up: shift losers down, write the new entry once.
  std::size_t pos = keys_.size();
  keys_.push_back(key);
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!key_less(key, keys_[parent])) break;
    keys_[pos] = keys_[parent];
    pos = parent;
  }
  keys_[pos] = key;
}

void EventQueue::heap_remove_root() {
  // Sift the tail key down from the root along the min-child path.
  const Key key = keys_.back();
  keys_.pop_back();
  const std::size_t n = keys_.size();
  if (n == 0) return;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t first = 4 * pos + 1;
    if (first >= n) break;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < std::min(first + 4, n); ++c) {
      if (key_less(keys_[c], keys_[best])) best = c;
    }
    if (!key_less(keys_[best], key)) break;
    keys_[pos] = keys_[best];
    pos = best;
  }
  keys_[pos] = key;
}

void EventQueue::prune_root() {
  while (!keys_.empty() && !armed(key_slot(keys_[0]))) {
    release_slot(key_slot(keys_[0]));
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
  for (const Key& key : keys_) {
    SIMTY_CHECK_MSG(key_slot(key) < slots,
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
