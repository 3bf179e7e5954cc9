#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace simty::sim {
namespace {

TimePoint at(std::int64_t s) { return TimePoint::origin() + Duration::seconds(s); }

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(at(3), EventPriority::kFramework, [&] { order.push_back(3); });
  q.schedule(at(1), EventPriority::kFramework, [&] { order.push_back(1); });
  q.schedule(at(2), EventPriority::kFramework, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, PriorityBreaksTiesAtSameInstant) {
  EventQueue q;
  std::vector<std::string> order;
  q.schedule(at(5), EventPriority::kApp, [&] { order.push_back("app"); });
  q.schedule(at(5), EventPriority::kHardware, [&] { order.push_back("hw"); });
  q.schedule(at(5), EventPriority::kObserver, [&] { order.push_back("obs"); });
  q.schedule(at(5), EventPriority::kFramework, [&] { order.push_back("fw"); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<std::string>{"hw", "fw", "app", "obs"}));
}

TEST(EventQueue, InsertionOrderBreaksFullTies) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(at(1), EventPriority::kFramework, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelRemovesPendingEvent) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(at(1), EventPriority::kFramework, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
  // Second cancel is a no-op returning false.
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(at(1), EventPriority::kFramework, [] {});
  q.pop().callback();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, NextTimeAndLabels) {
  EventQueue q;
  q.schedule(at(9), EventPriority::kFramework, [] {}, "later");
  q.schedule(at(4), EventPriority::kFramework, [] {}, "sooner");
  EXPECT_EQ(q.next_time(), at(4));
  EXPECT_STREQ(q.pop().label, "sooner");
  EXPECT_STREQ(q.pop().label, "later");
}

TEST(EventQueue, SizeTracksScheduleAndPop) {
  EventQueue q;
  EXPECT_EQ(q.size(), 0u);
  q.schedule(at(1), EventPriority::kFramework, [] {});
  q.schedule(at(2), EventPriority::kFramework, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, EmptyPopAndNextTimeThrow) {
  EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_THROW(q.next_time(), std::logic_error);
}

TEST(EventQueue, EmptyCallbackRejected) {
  EventQueue q;
  EXPECT_THROW(q.schedule(at(1), EventPriority::kFramework, EventFn{}),
               std::logic_error);
}

TEST(EventQueue, SlabRecyclesTombstonedSlots) {
  EventQueue q;
  constexpr std::size_t kWindow = 64;
  // Many churn cycles of schedule-all/cancel-all must not grow the slab
  // past the peak live count: every tombstone's slot is recycled once it
  // surfaces at the heap root.
  for (int cycle = 0; cycle < 100; ++cycle) {
    std::vector<EventId> ids;
    for (std::size_t i = 0; i < kWindow; ++i) {
      ids.push_back(q.schedule(at(static_cast<std::int64_t>(i + 1)),
                               EventPriority::kFramework, [] {}));
    }
    for (const EventId id : ids) EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
  }
  EXPECT_LE(q.slab_slots(), kWindow);
}

TEST(EventQueue, CancelAfterSlotReuseMissesNewTenant) {
  EventQueue q;
  const EventId a = q.schedule(at(1), EventPriority::kFramework, [] {});
  q.pop();  // a's slot is recycled
  bool b_fired = false;
  const EventId b = q.schedule(at(2), EventPriority::kFramework, [&] { b_fired = true; });
  // The stale id names the same slot but an older generation: cancelling it
  // must not evict the new tenant.
  EXPECT_FALSE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
  q.pop().callback();
  EXPECT_TRUE(b_fired);
  EXPECT_TRUE(q.cancel(b) == false);
}

TEST(EventQueue, CancelledEventNeverFiresEvenWhenInterleaved) {
  EventQueue q;
  std::vector<int> fired;
  const EventId doomed =
      q.schedule(at(2), EventPriority::kFramework, [&] { fired.push_back(2); });
  q.schedule(at(1), EventPriority::kFramework, [&] { fired.push_back(1); });
  q.schedule(at(3), EventPriority::kFramework, [&] { fired.push_back(3); });
  EXPECT_TRUE(q.cancel(doomed));
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelledHead) {
  EventQueue q;
  const EventId head = q.schedule(at(1), EventPriority::kFramework, [] {});
  q.schedule(at(5), EventPriority::kFramework, [] {});
  EXPECT_EQ(q.next_time(), at(1));
  EXPECT_TRUE(q.cancel(head));
  EXPECT_EQ(q.next_time(), at(5));
}

TEST(EventQueue, InternLabelReturnsStablePointers) {
  const std::string dynamic = "computed-" + std::to_string(42);
  const char* a = intern_label(dynamic);
  const char* b = intern_label("computed-42");
  EXPECT_STREQ(a, "computed-42");
  EXPECT_EQ(a, b);  // same content interns to the same pointer

  EventQueue q;
  q.schedule(at(1), EventPriority::kFramework, [] {}, a);
  EXPECT_STREQ(q.pop().label, "computed-42");
}

// Reference model of the pre-heap implementation: a std::map ordered by the
// same (time, priority, seq) key. The differential test drives both through
// an identical randomized schedule/cancel/pop history and requires the
// exact same fire order and cancel outcomes.
class MapModel {
 public:
  std::uint64_t schedule(std::int64_t when_us, int priority, int payload) {
    const Key key{when_us, priority, next_seq_++};
    events_.emplace(key, payload);
    index_.emplace(key.seq, key);
    return key.seq;
  }

  bool cancel(std::uint64_t id) {
    const auto it = index_.find(id);
    if (it == index_.end()) return false;
    events_.erase(it->second);
    index_.erase(it);
    return true;
  }

  bool empty() const { return events_.empty(); }

  std::pair<std::int64_t, int> pop() {
    const auto it = events_.begin();
    std::pair<std::int64_t, int> out{it->first.when_us, it->second};
    index_.erase(it->first.seq);
    events_.erase(it);
    return out;
  }

 private:
  struct Key {
    std::int64_t when_us;
    int priority;
    std::uint64_t seq;
    auto operator<=>(const Key&) const = default;
  };
  std::map<Key, int> events_;
  std::map<std::uint64_t, Key> index_;
  std::uint64_t next_seq_ = 1;
};

TEST(EventQueue, RandomizedDifferentialAgainstMapModel) {
  EventQueue q;
  MapModel model;
  Rng rng(2024);

  struct Live {
    EventId real;
    std::uint64_t model;
  };
  std::vector<Live> live;  // superset of pending events (may hold stale ids)
  std::vector<std::pair<std::int64_t, int>> fired_real;
  std::vector<std::pair<std::int64_t, int>> fired_model;

  int payload = 0;
  std::size_t pending = 0;
  constexpr int kOps = 30'000;
  for (int op = 0; op < kOps; ++op) {
    const std::uint32_t dice = rng.next_below(100);
    if (dice < 50 || q.empty()) {
      // Small time range + 4 priorities force heavy key ties, so the
      // seq tie-break is exercised constantly.
      const std::int64_t when_us = static_cast<std::int64_t>(rng.next_below(64));
      const int priority = static_cast<int>(rng.next_below(4));
      const int p = payload++;
      const EventId real = q.schedule(
          TimePoint::from_us(when_us), static_cast<EventPriority>(priority),
          [&fired_real, when_us, p] { fired_real.emplace_back(when_us, p); });
      const std::uint64_t m = model.schedule(when_us, priority, p);
      live.push_back({real, m});
      ++pending;
    } else if (dice < 75 && !live.empty()) {
      // Cancel a random (possibly already fired/cancelled) handle; both
      // implementations must agree on whether it was still pending.
      const std::size_t pick = rng.next_below(static_cast<std::uint32_t>(live.size()));
      const bool cancelled = q.cancel(live[pick].real);
      ASSERT_EQ(cancelled, model.cancel(live[pick].model)) << "op " << op;
      if (cancelled) --pending;
    } else {
      ASSERT_FALSE(model.empty());
      q.pop().callback();
      fired_model.push_back(model.pop());
      --pending;
      ASSERT_EQ(fired_real.size(), fired_model.size());
      ASSERT_EQ(fired_real.back(), fired_model.back()) << "op " << op;
    }
    ASSERT_EQ(q.size(), pending) << "live-count divergence at op " << op;
  }

  // Drain both completely: the remaining fire order must match too.
  while (!q.empty()) {
    q.pop().callback();
    fired_model.push_back(model.pop());
  }
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(fired_real, fired_model);
}

// --------------------------------------------------------------------------
// Same-instant groups: events sharing one (time, priority)
// --------------------------------------------------------------------------

TEST(EventQueue, SameInstantGroupFiresInSequenceOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(at(1), EventPriority::kFramework, [&order, i] { order.push_back(i); });
  }
  q.schedule(at(1), EventPriority::kApp, [&order] { order.push_back(99); });
  q.schedule(at(2), EventPriority::kFramework, [&order] { order.push_back(100); });

  // The five (t=1, kFramework) events fire in schedule order, before the
  // same-instant lower-priority event and the later one.
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 99, 100}));
}

TEST(EventQueue, CancelInsideSameInstantGroup) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(
        q.schedule(at(3), EventPriority::kFramework, [&order, i] { order.push_back(i); }));
  }
  // The group's first event fires; its successor is cancelled mid-group.
  q.pop().callback();
  EXPECT_TRUE(q.cancel(ids[1]));
  EXPECT_FALSE(q.cancel(ids[1]));  // already cancelled
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), at(3));
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3}));
  EXPECT_FALSE(q.cancel(ids[0]));  // fired
}

TEST(EventQueue, HigherPriorityEventScheduledMidGroupFiresNext) {
  // A callback scheduling a higher-priority event at the same instant must
  // see it fire before the rest of the group.
  EventQueue q;
  std::vector<std::string> order;
  for (int i = 0; i < 3; ++i) {
    q.schedule(at(7), EventPriority::kApp,
               [&order, i] { order.push_back("app" + std::to_string(i)); });
  }
  auto first = q.pop();
  first.callback();
  q.schedule(at(7), EventPriority::kHardware, [&order] { order.push_back("hw"); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<std::string>{"app0", "hw", "app1", "app2"}));
}

// Differential test over 1e5 mixed operations across three phases — a
// general mix, a tombstone-heavy phase (cancel-dominated, so dead entries
// pile up under the root), and a same-instant-burst phase (tiny time range,
// big same-(time, priority) groups).
TEST(EventQueue, RandomizedDifferentialWithTombstonesAndBursts) {
  EventQueue q;
  MapModel model;
  Rng rng(777);

  struct Live {
    EventId real;
    std::uint64_t model;
  };
  std::vector<Live> live;
  std::vector<std::pair<std::int64_t, int>> fired_real;
  std::vector<std::pair<std::int64_t, int>> fired_model;

  int payload = 0;
  std::size_t pending = 0;
  constexpr int kOps = 100'000;
  for (int op = 0; op < kOps; ++op) {
    // Phase thresholds: [0,40k) mixed, [40k,70k) tombstone-heavy,
    // [70k,100k) same-instant bursts.
    const bool tombstone_phase = op >= 40'000 && op < 70'000;
    const bool burst_phase = op >= 70'000;
    const std::uint32_t dice = rng.next_below(100);
    const std::uint32_t cancel_cut = tombstone_phase ? 75 : 25;
    const std::uint32_t schedule_cut = tombstone_phase ? 15 : 45;

    if (dice < schedule_cut || q.empty()) {
      const std::int64_t when_us =
          static_cast<std::int64_t>(rng.next_below(burst_phase ? 8 : 64));
      const int priority = static_cast<int>(rng.next_below(burst_phase ? 2 : 4));
      const std::size_t fan = burst_phase ? 1 + rng.next_below(8) : 1;
      for (std::size_t f = 0; f < fan; ++f) {
        const int p = payload++;
        const EventId real = q.schedule(
            TimePoint::from_us(when_us), static_cast<EventPriority>(priority),
            [&fired_real, when_us, p] { fired_real.emplace_back(when_us, p); });
        live.push_back({real, model.schedule(when_us, priority, p)});
        ++pending;
      }
    } else if (dice < schedule_cut + cancel_cut && !live.empty()) {
      const std::size_t pick = rng.next_below(static_cast<std::uint32_t>(live.size()));
      const bool cancelled = q.cancel(live[pick].real);
      ASSERT_EQ(cancelled, model.cancel(live[pick].model)) << "op " << op;
      if (cancelled) --pending;
    } else {
      q.pop().callback();
      fired_model.push_back(model.pop());
      ASSERT_EQ(fired_real.size(), fired_model.size());
      ASSERT_EQ(fired_real.back(), fired_model.back()) << "op " << op;
      --pending;
    }
    ASSERT_EQ(q.size(), pending) << "live-count divergence at op " << op;
  }

  while (!q.empty()) {
    q.pop().callback();
    fired_model.push_back(model.pop());
  }
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(fired_real, fired_model);
}

}  // namespace
}  // namespace simty::sim
