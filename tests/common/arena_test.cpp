#include "common/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace simty::common {
namespace {

bool aligned_to(const void* p, std::size_t align) {
  return reinterpret_cast<std::uintptr_t>(p) % align == 0;
}

TEST(ArenaTest, AllocationsAreDisjointAndWritable) {
  Arena arena;
  auto* a = static_cast<std::uint8_t*>(arena.allocate(100, 8));
  auto* b = static_cast<std::uint8_t*>(arena.allocate(100, 8));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  std::memset(a, 0xaa, 100);
  std::memset(b, 0xbb, 100);
  EXPECT_EQ(a[0], 0xaa);
  EXPECT_EQ(a[99], 0xaa);
  EXPECT_EQ(b[0], 0xbb);
}

TEST(ArenaTest, HonorsRequestedAlignment) {
  Arena arena;
  arena.allocate(1, 1);  // misalign the bump pointer
  for (std::size_t align : {1u, 2u, 8u, 16u, 64u}) {
    EXPECT_TRUE(aligned_to(arena.allocate(3, align), align)) << "align " << align;
  }
}

TEST(ArenaTest, ZeroByteAllocationReturnsLivePointer) {
  Arena arena;
  EXPECT_NE(arena.allocate(0, 8), nullptr);
}

TEST(ArenaTest, GrowsBeyondFirstBlock) {
  Arena arena(256);
  // Far more than the first block can hold.
  for (int i = 0; i < 64; ++i) {
    auto* p = static_cast<std::uint8_t*>(arena.allocate(64, 64));
    ASSERT_NE(p, nullptr);
    std::memset(p, static_cast<int>(i), 64);
  }
  EXPECT_GE(arena.stats().block_allocs, 2u);
  EXPECT_GE(arena.stats().reserved_bytes, 64u * 64u);
}

TEST(ArenaTest, ResetRetainsBlocksAndRewindsUsage) {
  Arena arena(256);
  for (int i = 0; i < 64; ++i) arena.allocate(64, 8);
  const auto before = arena.stats();
  EXPECT_GT(before.used_bytes, 0u);

  arena.reset();
  EXPECT_EQ(arena.stats().used_bytes, 0u);
  EXPECT_EQ(arena.stats().block_allocs, before.block_allocs);
  EXPECT_EQ(arena.stats().reserved_bytes, before.reserved_bytes);
  EXPECT_EQ(arena.stats().resets, before.resets + 1);

  // The second life replays the same allocation pattern without growing.
  for (int i = 0; i < 64; ++i) arena.allocate(64, 8);
  EXPECT_EQ(arena.stats().block_allocs, before.block_allocs);
}

TEST(ArenaVectorTest, PushIndexPopRoundTripOnArena) {
  Arena arena;
  ArenaVector<int> v(&arena);
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 1000u);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(v[static_cast<std::size_t>(i)], i);
  v.pop_back();
  EXPECT_EQ(v.size(), 999u);
  EXPECT_EQ(v.back(), 998);
}

TEST(ArenaVectorTest, HeapFallbackWorksWithoutArena) {
  ArenaVector<int> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v[99], 99);
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_GT(v.capacity(), 0u);  // clear keeps capacity
}

TEST(ArenaVectorTest, GrowthMovesElements) {
  struct Tracked {
    int value = 0;
    int moved = 0;
    explicit Tracked(int v) : value(v) {}
    Tracked(Tracked&& other) noexcept : value(other.value), moved(other.moved + 1) {}
    Tracked& operator=(Tracked&&) = delete;
  };
  Arena arena;
  ArenaVector<Tracked> v(&arena);
  for (int i = 0; i < 100; ++i) v.emplace_back(i);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(v[static_cast<std::size_t>(i)].value, i);
  }
  EXPECT_GT(v[0].moved, 0);  // survived at least one growth relocation
}

TEST(ArenaVectorTest, ResizeValueInitializesAndShrinksDestroying) {
  ArenaVector<int> v;
  v.resize(8);
  EXPECT_EQ(v.size(), 8u);
  for (const int x : v) EXPECT_EQ(x, 0);
  v[7] = 42;
  v.resize(4);
  EXPECT_EQ(v.size(), 4u);
  v.resize(8);
  EXPECT_EQ(v[7], 0);  // re-grown tail is value-initialized again
}

TEST(ArenaVectorTest, MoveTransfersStorage) {
  Arena arena;
  ArenaVector<int> a(&arena);
  a.push_back(7);
  ArenaVector<int> b(std::move(a));
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], 7);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): moved-from is empty
  a = std::move(b);
  EXPECT_EQ(a.size(), 1u);
}

TEST(ArenaVectorTest, InsertAndEraseKeepOrderOnBothPaths) {
  Arena arena;
  for (Arena* a : {&arena, static_cast<Arena*>(nullptr)}) {
    ArenaVector<std::unique_ptr<int>> v(a);
    for (int i : {1, 3, 4}) v.push_back(std::make_unique<int>(i));
    EXPECT_EQ(**v.insert(v.begin() + 1, std::make_unique<int>(2)), 2);
    v.insert(v.end(), std::make_unique<int>(5));
    v.erase(v.begin());
    ASSERT_EQ(v.size(), 4u);
    for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(*v[i], static_cast<int>(i) + 2);
    EXPECT_EQ(*v.front(), 2);
  }
}

struct Counted {
  explicit Counted(int* counter) : live(counter) { ++*live; }
  virtual ~Counted() { --*live; }
  int* live;
};
struct DerivedCounted : Counted {
  using Counted::Counted;
};

TEST(ArenaPtrTest, DestroysOnBothPathsAndAdoptsUniquePtr) {
  Arena arena;
  int live = 0;
  {
    ArenaPtr<Counted> in_arena = make_arena_ptr<DerivedCounted>(&arena, &live);
    ArenaPtr<Counted> on_heap = make_arena_ptr<Counted>(nullptr, &live);
    ArenaPtr<Counted> adopted = std::make_unique<DerivedCounted>(&live);
    EXPECT_EQ(live, 3);
    EXPECT_GT(arena.stats().used_bytes, 0u);
  }
  EXPECT_EQ(live, 0);  // every destructor ran; only the heap objects were freed
}

#if defined(__SANITIZE_ADDRESS__)
TEST(ArenaTest, ResetPoisonsRewoundStorageUnderAsan) {
  Arena arena;
  void* p = arena.allocate(64, 8);
  EXPECT_FALSE(__asan_address_is_poisoned(p));
  arena.reset();
  EXPECT_TRUE(__asan_address_is_poisoned(p));  // a use after reset is reported
  void* q = arena.allocate(64, 8);
  EXPECT_EQ(q, p);
  EXPECT_FALSE(__asan_address_is_poisoned(q));
}
#endif

TEST(ArenaVectorTest, SetArenaOnlyBeforeFirstAllocation) {
  Arena arena;
  ArenaVector<int> v;
  v.set_arena(&arena);  // legal: nothing allocated yet
  v.push_back(1);
  EXPECT_THROW(v.set_arena(nullptr), std::exception);
}

}  // namespace
}  // namespace simty::common
