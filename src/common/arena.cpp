#include "common/arena.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace simty::common {

namespace {

// Arena blocks back large, long-lived, randomly accessed arrays (the SoA
// heap keys and payload slabs). At fleet-aggregate depth those arrays span
// tens of megabytes, so with 4K pages nearly every sift level is a TLB miss
// on top of the cache miss. On Linux with THP in madvise mode, advising the
// page-aligned interior of each block upgrades it to 2M pages. Best-effort:
// any error (THP disabled, range too small) is deliberately ignored.
void advise_huge_pages(std::byte* p, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  constexpr std::uintptr_t kPage = 4096;
  // The address value never reaches simulation state — it only rounds the
  // madvise range — so this cast cannot leak ASLR into results.
  const auto addr = reinterpret_cast<std::uintptr_t>(p);  // simty-analyze: allow(taint)
  const std::uintptr_t first = (addr + kPage - 1) & ~(kPage - 1);
  const std::uintptr_t last = (addr + bytes) & ~(kPage - 1);
  if (last > first) {
    (void)::madvise(reinterpret_cast<void*>(first), last - first, MADV_HUGEPAGE);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

std::byte* aligned_block_alloc(std::size_t bytes) {
  auto* p = static_cast<std::byte*>(
      ::operator new(bytes, std::align_val_t{Arena::kMaxAlign}));
  if (bytes >= 2u << 20) advise_huge_pages(p, bytes);
  return p;
}

void aligned_block_free(std::byte* p) {
  ::operator delete(static_cast<void*>(p), std::align_val_t{Arena::kMaxAlign});
}

// Under ASan only the bytes allocate() handed out since the last reset()
// are addressable; elsewhere these are no-ops.
void poison(std::byte* p, std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(p, bytes);
#else
  static_cast<void>(p);
  static_cast<void>(bytes);
#endif
}

void unpoison(std::byte* p, std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#else
  static_cast<void>(p);
  static_cast<void>(bytes);
#endif
}

std::size_t align_up(std::size_t n, std::size_t align) {
  return (n + (align - 1)) & ~(align - 1);
}

}  // namespace

Arena::Arena(std::size_t first_block_bytes)
    : first_block_bytes_(first_block_bytes == 0 ? kDefaultFirstBlockBytes
                                                : first_block_bytes) {}

Arena::~Arena() {
  for (Block& b : blocks_) {
    unpoison(b.data, b.capacity);
    aligned_block_free(b.data);
  }
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  SIMTY_CHECK_MSG(align != 0 && (align & (align - 1)) == 0 && align <= kMaxAlign,
                  "Arena::allocate: alignment must be a power of two <= kMaxAlign");
  if (current_ < blocks_.size()) {
    const std::size_t at = align_up(offset_, align);
    if (bytes <= blocks_[current_].capacity - at &&
        at <= blocks_[current_].capacity) {
      offset_ = at + bytes;
      unpoison(blocks_[current_].data + at, bytes);
      return blocks_[current_].data + at;
    }
  }
  return allocate_slow(bytes, align);
}

void* Arena::allocate_slow(std::size_t bytes, std::size_t /*align*/) {
  // Block bases are kMaxAlign-aligned, so offset 0 satisfies any legal
  // alignment and the parameter goes unused here. Try retained blocks first.
  while (current_ + 1 < blocks_.size()) {
    ++current_;
    offset_ = 0;
    if (bytes <= blocks_[current_].capacity) {
      offset_ = bytes;
      unpoison(blocks_[current_].data, bytes);
      return blocks_[current_].data;
    }
  }
  // Grow: double the last capacity so the block count stays logarithmic in
  // total footprint, but never smaller than the request itself.
  std::size_t cap = blocks_.empty() ? first_block_bytes_ : blocks_.back().capacity * 2;
  if (cap < bytes) cap = align_up(bytes, kMaxAlign);
  blocks_.push_back(Block{aligned_block_alloc(cap), cap});
  ++block_allocs_;
  current_ = blocks_.size() - 1;
  offset_ = bytes;
  poison(blocks_[current_].data + bytes, cap - bytes);
  return blocks_[current_].data;
}

void Arena::reset() {
  // Under ASan the rewound blocks become unaddressable until allocate()
  // hands them out again: storage used after its run ended is reported.
  for (Block& b : blocks_) poison(b.data, b.capacity);
  current_ = 0;
  offset_ = 0;
  ++resets_;
}

Arena::Stats Arena::stats() const {
  Stats s;
  s.block_allocs = block_allocs_;
  s.resets = resets_;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    s.reserved_bytes += blocks_[i].capacity;
    if (i < current_) s.used_bytes += blocks_[i].capacity;
  }
  if (current_ < blocks_.size()) s.used_bytes += offset_;
  return s;
}

}  // namespace simty::common
