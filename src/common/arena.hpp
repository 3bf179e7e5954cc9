#pragma once
// Per-run bump arena with O(1) whole-run reset.
//
// The fleet runner simulates one device after another on each shard; the
// sweep runner repeats one config across seeds. Both used to pay the general
// allocator on every run for storage whose lifetime is exactly "one run":
// event-queue slabs, alarms, batches and queues, apps. An Arena makes
// that lifetime explicit — allocation is a pointer bump, and reset() rewinds
// to the start while *retaining* every block, so the second and every later
// run on a shard allocates nothing at all.
//
// Ownership rules (see DESIGN.md "SoA event core & per-run arenas"):
//   - The arena outlives every container carved from it. Holders take a
//     non-owning Arena* and never free individual allocations.
//   - reset() invalidates all outstanding allocations at once; callers must
//     drop (or clear) their ArenaVectors before the owner resets.
//   - Arena is single-threaded by design: one arena per shard/worker, never
//     shared across threads (matching the one-simulator-per-worker model).
//
// ArenaVector<T> is the growable-array shim used by the hot paths: with an
// arena it bump-allocates and abandons old capacity (reclaimed wholesale at
// reset); without one it falls back to the heap so all call sites work
// unchanged when no arena is configured. ArenaPtr<T> (make_arena_ptr) is
// the same contract for one object: a unique_ptr whose deleter runs the
// destructor and frees only heap storage.
//
// Under AddressSanitizer, reset() poisons every block and allocate()
// unpoisons what it hands out, so a use of run storage after the owner's
// reset is reported even though the blocks stay allocated.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace simty::common {

/// Bump allocator over a chain of geometrically growing blocks.
class Arena {
 public:
  /// Every block is allocated at (and allocation honors up to) this
  /// alignment, so 64-byte-aligned SoA key arrays can be carved directly.
  static constexpr std::size_t kMaxAlign = 64;

  explicit Arena(std::size_t first_block_bytes = kDefaultFirstBlockBytes);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (power of two,
  /// <= kMaxAlign). Never returns nullptr; grows by appending a block when
  /// the current one is full. `bytes == 0` is allowed (returns a live,
  /// aligned pointer).
  void* allocate(std::size_t bytes, std::size_t align);

  /// Rewinds the arena to empty, retaining every block for reuse.
  /// Invalidates all outstanding allocations. Amortized O(1): no block is
  /// freed or cleared.
  void reset();

  /// Observability for the steady-state allocation gates: a warmed arena
  /// must show `block_allocs` constant across reset()+rerun cycles.
  struct Stats {
    std::size_t block_allocs = 0;    // blocks ever requested from the heap
    std::size_t resets = 0;          // reset() calls
    std::size_t reserved_bytes = 0;  // sum of block capacities
    std::size_t used_bytes = 0;      // bytes handed out since last reset
  };
  Stats stats() const;

 private:
  static constexpr std::size_t kDefaultFirstBlockBytes = 64 * 1024;

  struct Block {
    std::byte* data = nullptr;
    std::size_t capacity = 0;
  };

  /// Slow path: advance to a retained block that fits, or grow.
  void* allocate_slow(std::size_t bytes, std::size_t align);

  std::vector<Block> blocks_;
  std::size_t current_ = 0;  // index of the block being bumped
  std::size_t offset_ = 0;   // bump offset within blocks_[current_]
  std::size_t first_block_bytes_;
  std::size_t block_allocs_ = 0;
  std::size_t resets_ = 0;
};

/// Growable array backed by an Arena (or the heap when arena == nullptr).
///
/// Deliberately minimal: the event-core containers need push/pop/index/
/// clear/resize and nothing else. Elements must be nothrow-move-
/// constructible so growth never needs a copy fallback. `Align` raises the
/// alignment of the backing storage (e.g. 64 for the heap key array so
/// every 4-ary sibling group shares one cache line).
template <typename T, std::size_t Align = alignof(T)>
class ArenaVector {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "ArenaVector elements must be nothrow-move-constructible");
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                "Align must be a power of two covering alignof(T)");
  static_assert(Align <= Arena::kMaxAlign, "Align exceeds Arena::kMaxAlign");

 public:
  ArenaVector() = default;
  explicit ArenaVector(Arena* arena) : arena_(arena) {}

  ArenaVector(ArenaVector&& other) noexcept
      : arena_(other.arena_), data_(other.data_), size_(other.size_),
        capacity_(other.capacity_) {
    other.data_ = nullptr;
    other.size_ = 0;
    other.capacity_ = 0;
  }

  ArenaVector& operator=(ArenaVector&& other) noexcept {
    if (this != &other) {
      destroy_storage();
      arena_ = other.arena_;
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = nullptr;
      other.size_ = 0;
      other.capacity_ = 0;
    }
    return *this;
  }

  ArenaVector(const ArenaVector&) = delete;
  ArenaVector& operator=(const ArenaVector&) = delete;

  ~ArenaVector() { destroy_storage(); }

  /// Rebinds to `arena`; only legal before any storage exists (the arena
  /// is injected right after construction, never mid-life).
  void set_arena(Arena* arena) {
    SIMTY_CHECK_MSG(data_ == nullptr, "ArenaVector::set_arena after allocation");
    arena_ = arena;
  }

  Arena* arena() const { return arena_; }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) grow(size_ + 1);
    T* p = ::new (static_cast<void*>(data_ + size_)) T(std::forward<Args>(args)...);
    ++size_;
    return *p;
  }

  void pop_back() {
    --size_;
    data_[size_].~T();
  }

  /// Inserts `value` before `pos`, shifting the tail up; returns the slot.
  T* insert(T* pos, T&& value) {
    const std::size_t at = static_cast<std::size_t>(pos - data_);
    emplace_back(std::move(value));
    std::rotate(data_ + at, data_ + size_ - 1, data_ + size_);
    return data_ + at;
  }

  /// Removes the element at `pos`, shifting the tail down.
  void erase(T* pos) {
    std::move(pos + 1, data_ + size_, pos);
    pop_back();
  }

  /// Destroys elements; keeps capacity (the steady-state reuse path).
  void clear() {
    for (std::size_t i = size_; i > 0; --i) data_[i - 1].~T();
    size_ = 0;
  }

  void reserve(std::size_t n) {
    if (n > capacity_) grow(n);
  }

  /// Grows with value-initialized elements, or shrinks destroying the tail.
  void resize(std::size_t n) {
    if (n < size_) {
      for (std::size_t i = size_; i > n; --i) data_[i - 1].~T();
    } else {
      if (n > capacity_) grow(n);
      for (std::size_t i = size_; i < n; ++i) ::new (static_cast<void*>(data_ + i)) T();
    }
    size_ = n;
  }

 private:
  void grow(std::size_t min_capacity) {
    std::size_t new_cap = capacity_ < 8 ? 8 : capacity_ * 2;
    if (new_cap < min_capacity) new_cap = min_capacity;
    T* fresh = allocate_raw(new_cap);
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(fresh + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    release_raw();
    data_ = fresh;
    capacity_ = new_cap;
  }

  T* allocate_raw(std::size_t n) {
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->allocate(n * sizeof(T), Align));
    }
    if constexpr (Align > alignof(std::max_align_t)) {
      return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{Align}));
    } else {
      return static_cast<T*>(::operator new(n * sizeof(T)));
    }
  }

  /// Frees the current buffer on the heap path; arena storage is abandoned
  /// (reclaimed wholesale by Arena::reset()).
  void release_raw() {
    if (arena_ != nullptr || data_ == nullptr) return;
    if constexpr (Align > alignof(std::max_align_t)) {
      ::operator delete(static_cast<void*>(data_), std::align_val_t{Align});
    } else {
      ::operator delete(static_cast<void*>(data_));
    }
  }

  void destroy_storage() {
    clear();
    release_raw();
    data_ = nullptr;
    capacity_ = 0;
  }

  Arena* arena_ = nullptr;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

/// Deleter of make_arena_ptr's objects: runs the destructor, and frees the
/// storage only when it came from the heap (arena storage is reclaimed by
/// Arena::reset()). Converts from std::default_delete, so a
/// std::unique_ptr<U> hands its object over to an ArenaPtr.
struct ArenaDelete {
  Arena* arena = nullptr;

  ArenaDelete() = default;
  explicit ArenaDelete(Arena* a) : arena(a) {}
  template <typename U>
  ArenaDelete(std::default_delete<U>) noexcept {}  // implicit: see above

  template <typename T>
  void operator()(T* p) const noexcept {
    if (arena == nullptr) {
      delete p;
    } else {
      p->~T();
    }
  }
};

/// Owning pointer to one object carved from an Arena (or the heap).
template <typename T>
using ArenaPtr = std::unique_ptr<T, ArenaDelete>;

/// Constructs a T in `arena`, or on the heap when arena == nullptr. The
/// object must be destroyed (its ArenaPtr dropped) before the arena resets.
template <typename T, typename... Args>
ArenaPtr<T> make_arena_ptr(Arena* arena, Args&&... args) {
  static_assert(alignof(T) <= Arena::kMaxAlign, "alignment exceeds Arena::kMaxAlign");
  if (arena == nullptr) return ArenaPtr<T>(new T(std::forward<Args>(args)...));
  void* p = arena->allocate(sizeof(T), alignof(T));
  return ArenaPtr<T>(::new (p) T(std::forward<Args>(args)...), ArenaDelete(arena));
}

}  // namespace simty::common
