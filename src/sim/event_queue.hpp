#pragma once
// Pending-event set for the discrete-event simulator.
//
// Events are ordered by (time, priority, insertion sequence): simultaneous
// events run in deterministic order, and the priority lane lets the device
// model run hardware-level transitions (RTC interrupt, wake completion)
// before framework-level reactions scheduled for the same instant.
//
// Storage is struct-of-arrays. The 4-ary min-heap holds nothing but dense
// 16-byte comparison keys (biased time, then priority|seq|slot in one order
// word) in a 64-byte-aligned array — with the root placed at physical index
// 3, every 4-child sibling group shares exactly one cache line. The payload
// slab index rides in the low bits of the order word: seq is unique, so
// comparisons never reach the slot bits, and a sift level moves exactly 16
// bytes with no parallel position map to maintain. Payloads (callback,
// label, generation, free-list link) live in per-field slab arrays indexed
// by the low half of the EventId, with the armed/tombstone flag packed into
// a bitset so lazy-cancellation pruning never touches the fat callback
// array. All storage can be carved from a common::Arena (per-shard in the
// fleet runner) so repeated runs reset instead of reallocating.
//
// cancel() is lazy: it marks a generation-checked tombstone instead of
// erasing, and the tombstone is skipped (and its slot recycled) when it
// reaches the heap root. Lazy cancellation cannot perturb the fire order:
// the (time, priority, seq) key of a live event never changes, and
// tombstones are invisible to next_time()/pop() by the root-is-live
// invariant maintained after every mutation.

#include <cstdint>
#include <string_view>

#include "common/arena.hpp"
#include "common/time.hpp"
#include "sim/event_fn.hpp"
#include "snapshot/codec.hpp"

namespace simty::sim {

/// Handle to a scheduled event; valid until the event fires or is cancelled.
/// Encodes (slot generation << 32 | slab index); a default-constructed id
/// (value 0) never names a live event.
struct EventId {
  std::uint64_t value = 0;
  bool operator==(const EventId&) const = default;

  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) { f("value", self.value); }
};

/// Tie-break lane for events scheduled at the same instant (lower runs first).
enum class EventPriority : int {
  kHardware = 0,   // RTC interrupts, device state transitions
  kFramework = 1,  // alarm manager delivery, task completion
  kApp = 2,        // app reactions, re-registration
  kObserver = 3,   // metrics sampling, trace capture
};

/// Interns a dynamically built label into a process-lifetime pool and
/// returns a stable C string. Schedule labels are static literals on the
/// hot path; this is the debug escape hatch for code that wants a computed
/// label. Repeat lookups take only a shared lock, so labeled events do not
/// serialize fleet shards — but it still costs a hash + map probe, so keep
/// it out of per-event paths.
const char* intern_label(std::string_view label);

/// Min-ordered set of future events with O(log n) schedule/cancel/pop, no
/// per-event heap allocation, and optional arena-backed storage.
class EventQueue {
 public:
  EventQueue();
  /// All internal storage is carved from `arena` when non-null. The arena
  /// must outlive the queue, and must not be reset while the queue lives.
  explicit EventQueue(common::Arena* arena);

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `cb` at `when`; `label` must outlive the event (pass a
  /// string literal, or intern_label() for a computed one).
  EventId schedule(TimePoint when, EventPriority priority, EventFn cb,
                   const char* label = "");

  /// Cancels a pending event. Returns false if it already fired/was
  /// cancelled.
  bool cancel(EventId id);

  bool empty() const { return live_ == 0; }

  /// Number of live (scheduled, not cancelled) events.
  std::size_t size() const { return live_; }

  /// Time of the earliest pending event; queue must be non-empty.
  TimePoint next_time() const;

  /// Removes and returns the earliest event's callback and metadata. The
  /// callback is moved out of the queue, never copied.
  struct Fired {
    TimePoint when;
    EventFn callback;
    const char* label = "";
    EventPriority priority = EventPriority::kFramework;
  };
  Fired pop();

  /// Slab high-water mark (slots ever allocated); tombstoned slots are
  /// recycled, so this stays near the peak live count. Exposed for tests.
  std::size_t slab_slots() const { return callbacks_.size(); }

  /// The snapshot carries the queue's complete structure — heap keys
  /// verbatim, slab generations/labels/free-list, the armed bit words and
  /// the sequence counter. Callbacks cannot be
  /// serialized; after restore() every armed event is empty until the
  /// owner rebind()s it (see fully_bound()).
  /// restore() replaces the queue's current contents wholesale; all
  /// lengths, slot references, and link fields are bounds-checked
  /// (SIMTY_CHECK) before allocation or use.
  void restore(snapshot::SectionReader& s);

  /// State fields, in snapshot order.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    // Heap keys verbatim, minus the kRoot alignment padding: the restored
    // array is byte-for-byte the live one, so the resumed pop order is
    // trivially the straight run's.
    f("heap", snapshot::by_hand(
        self.keys_,
        [](snapshot::Writer& w, const auto& keys) {
          w.u64(keys.size() - kRoot);
          for (std::size_t i = kRoot; i < keys.size(); ++i) {
            snapshot::write_fields(w, keys[i]);
          }
        },
        [](snapshot::SectionReader& s, auto& keys) {
          const std::uint64_t n = snapshot::read_count(s);
          keys.clear();
          keys.resize(kRoot);
          for (std::uint64_t i = 0; i < n; ++i) {
            snapshot::read_fields(s, keys.emplace_back());
          }
        }));
    f("slots", self.meta_);
    f("armed_words", self.armed_words_);
    f("free_head", self.free_head_);
    f("next_seq", self.next_seq_);
    f("live", self.live_);
  }

  /// Re-attaches the callback of a restored armed event. The id must name a
  /// live restored event whose callback is still empty.
  void rebind(EventId id, EventFn cb);

  /// True when every armed (live) slot holds a non-empty callback — the
  /// post-restore coverage check run before a resumed simulation may step.
  bool fully_bound() const;

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  /// Physical index of the heap root. Indices 0..2 are padding: with the
  /// root at 3, children(p) = 4p-8..4p-5 puts every sibling group at a
  /// 16-byte-key * 4 = 64-byte-aligned offset.
  static constexpr std::size_t kRoot = 3;
  /// XOR bias turning signed microsecond order into unsigned order.
  static constexpr std::uint64_t kWhenBias = 1ull << 63;

  /// Dense heap comparison key; the only thing sift loops touch. The
  /// payload slot index rides in the low bits of `order`, below the
  /// sequence number: seq is unique, so comparisons never reach the slot
  /// bits, and the heap needs no parallel position->slot array — a sift
  /// level moves exactly 16 bytes.
  struct Key {
    std::uint64_t when_biased;  // int64 when_us ^ kWhenBias
    std::uint64_t order;        // (priority << 60) | (seq << 32) | slot

    template <typename Self, typename F>
    static void for_each_state_field(Self& self, F&& f) {
      f("when_biased", self.when_biased);
      f("order", self.order);
    }
  };
  static_assert(sizeof(Key) == 16);
  /// Sequence numbers get 28 bits (~268M schedules per queue instance);
  /// schedule() checks the ceiling loudly rather than wrapping.
  static constexpr std::uint64_t kMaxSeq = (1ull << 28) - 1;

  /// Widens a key to one unsigned integer so comparisons compile to a
  /// branchless cmp/sbb pair. Sift compares on random keys are otherwise
  /// mispredict-bound — the two-field compare costs ~15 cycles of flush
  /// roughly every other call.
#ifdef __SIZEOF_INT128__
  using KeyWord = unsigned __int128;
#else
  using KeyWord = std::uint64_t;  // unused; see the fallback in key_less
#endif
  static KeyWord key_word(const Key& k) {
#ifdef __SIZEOF_INT128__
    return (static_cast<KeyWord>(k.when_biased) << 64) | k.order;
#else
    return k.when_biased;
#endif
  }
  static bool key_less(const Key& a, const Key& b) {
#ifdef __SIZEOF_INT128__
    return key_word(a) < key_word(b);
#else
    return a.when_biased < b.when_biased ||
           (a.when_biased == b.when_biased && a.order < b.order);
#endif
  }
  static TimePoint key_time(const Key& k) {
    return TimePoint::from_us(static_cast<std::int64_t>(k.when_biased ^ kWhenBias));
  }
  static EventPriority key_priority(const Key& k) {
    return static_cast<EventPriority>(k.order >> 60);
  }
  static std::uint32_t key_slot(const Key& k) {
    return static_cast<std::uint32_t>(k.order & 0xffffffffu);
  }

  bool heap_empty() const { return keys_.size() == kRoot; }

  bool armed(std::uint32_t slot) const {
    return ((armed_words_[slot >> 6] >> (slot & 63u)) & 1u) != 0;
  }
  void set_armed(std::uint32_t slot) { armed_words_[slot >> 6] |= 1ull << (slot & 63u); }
  void clear_armed(std::uint32_t slot) { armed_words_[slot >> 6] &= ~(1ull << (slot & 63u)); }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);
  void heap_push(Key key);
  void sift_down(std::size_t pos);
  void heap_remove_root();
  /// Recycles tombstones sitting at the heap root, restoring the invariant
  /// that a non-empty heap's root is a live event.
  void prune_root();

  // Heap: dense keys only (slot packed into the order word); carries kRoot
  // padding entries at the front so sibling groups are line-aligned.
  common::ArenaVector<Key, 64> keys_;

  /// Cold per-slot fields packed into one 16-byte record so the
  /// schedule/release bookkeeping (label store, generation bump, free-list
  /// link) costs a single cache line next to the callback, not three
  /// scattered array touches.
  struct SlotMeta {
    const char* label = "";
    std::uint32_t generation = 1;  // starts at 1, bumped on release; 0 never live
    std::uint32_t next_free = kNilSlot;

    template <typename Self, typename F>
    static void for_each_state_field(Self& self, F&& f) {
      f("label", snapshot::by_hand(
          self.label, [](snapshot::Writer& w, const char* label) { w.str(label); },
          [](snapshot::SectionReader& s, auto& label) {
            // Cold path: restore runs once per resume, never per event.
            const std::string text = s.str();  // simty-lint: allow(string-label)
            label = text.empty() ? "" : intern_label(text);
          }));
      f("generation", self.generation);
      f("next_free", self.next_free);
    }
  };
  static_assert(sizeof(SlotMeta) == 16);

  // Payload slab (SoA), indexed by slot.
  common::ArenaVector<EventFn> callbacks_;
  common::ArenaVector<SlotMeta> meta_;
  common::ArenaVector<std::uint64_t> armed_words_;  // live vs tombstone, 1 bit/slot

  std::uint32_t free_head_ = kNilSlot;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};

}  // namespace simty::sim
