// BatchIndex correctness: unit-level differentials of the interval treap
// against a brute-force overlap scan, the edge cases of closed-interval
// overlap semantics, and a large randomized workload driven through the
// AlarmManager with slow queue checks on — which asserts, on every single
// insert, that the indexed candidate set equals a linear overlap scan and
// that the indexed selection equals the policy's linear select_batch.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "alarm/alarm_manager.hpp"
#include "alarm/batch_index.hpp"
#include "alarm/duration_policy.hpp"
#include "alarm/exact_policy.hpp"
#include "alarm/native_policy.hpp"
#include "alarm/simty_policy.hpp"
#include "common/rng.hpp"
#include "support/framework_fixture.hpp"

namespace simty::alarm {
namespace {

TimePoint at_s(std::int64_t s) {
  return TimePoint::origin() + Duration::seconds(s);
}

/// One-shot alarm whose window == grace == [nominal, nominal + window].
std::unique_ptr<Alarm> one_shot(std::uint64_t id, std::int64_t nominal_s,
                                std::int64_t window_s) {
  return std::make_unique<Alarm>(
      AlarmId{id},
      AlarmSpec::one_shot("t." + std::to_string(id), AppId{0},
                          Duration::seconds(window_s)),
      at_s(nominal_s));
}

/// Imperceptible repeating alarm: hardware learned as Wi-Fi only, so the
/// grace interval exceeds the window (alpha < beta).
std::unique_ptr<Alarm> imperceptible(std::uint64_t id, std::int64_t nominal_s) {
  auto a = std::make_unique<Alarm>(
      AlarmId{id},
      AlarmSpec::repeating("t." + std::to_string(id), AppId{0},
                           RepeatMode::kStatic, Duration::seconds(100), 0.05, 0.5),
      at_s(nominal_s));
  a->record_delivery(hw::ComponentSet{hw::Component::kWifi}, Duration::seconds(1));
  return a;
}

std::vector<std::size_t> collected(const BatchIndex& idx, const TimeInterval& iv,
                                   EntryIntervalKind kind) {
  common::ArenaVector<std::size_t> out;
  idx.collect(iv, kind, out);
  return {out.begin(), out.end()};
}

TEST(BatchIndexUnit, EmptyIndexCollectsNothing) {
  BatchIndex idx;
  EXPECT_TRUE(idx.empty());
  EXPECT_TRUE(collected(idx, TimeInterval(at_s(0), at_s(1000)),
                        EntryIntervalKind::kGrace)
                  .empty());
  EXPECT_TRUE(idx.check_invariants().empty());
}

TEST(BatchIndexUnit, TouchingEndpointsFollowClosedIntervalSemantics) {
  // Entry interval [100s, 110s]. A closed query starting exactly at 110s
  // shares that endpoint and must match; one microsecond later must not.
  auto a = one_shot(1, 100, 10);
  Batch b(a.get());
  b.set_queue_pos(7);
  BatchIndex idx;
  idx.insert(&b);

  const TimeInterval touching(at_s(110), at_s(120));
  const TimeInterval disjoint(at_s(110) + Duration::micros(1), at_s(120));
  EXPECT_EQ(collected(idx, touching, EntryIntervalKind::kGrace),
            (std::vector<std::size_t>{7}));
  EXPECT_TRUE(collected(idx, disjoint, EntryIntervalKind::kGrace).empty());
  // Same on the other side: query ending exactly at the entry's start.
  EXPECT_EQ(collected(idx, TimeInterval(at_s(90), at_s(100)),
                      EntryIntervalKind::kGrace),
            (std::vector<std::size_t>{7}));
  EXPECT_TRUE(collected(idx,
                        TimeInterval(at_s(90), at_s(100) - Duration::micros(1)),
                        EntryIntervalKind::kGrace)
                  .empty());
  // Empty query intervals overlap nothing by definition.
  EXPECT_TRUE(collected(idx, TimeInterval::empty(), EntryIntervalKind::kGrace)
                  .empty());
  EXPECT_TRUE(idx.check_invariants().empty());
}

TEST(BatchIndexUnit, CollapsedWindowExcludedFromWindowQueriesOnly) {
  // Two imperceptible members with disjoint windows but overlapping graces:
  // the entry's window intersection is empty while its grace stays real
  // (§3.2.1) — window queries must skip it, grace queries must find it.
  auto a1 = imperceptible(1, 1000);  // window [1000,1005], grace [1000,1050]
  auto a2 = imperceptible(2, 1010);  // window [1010,1015], grace [1010,1060]
  Batch b(a1.get());
  b.add(a2.get());
  ASSERT_TRUE(b.window_interval().is_empty());
  ASSERT_FALSE(b.grace_interval().is_empty());
  b.set_queue_pos(0);

  BatchIndex idx;
  idx.insert(&b);
  const TimeInterval span(at_s(990), at_s(1100));
  EXPECT_TRUE(collected(idx, span, EntryIntervalKind::kWindow).empty());
  EXPECT_EQ(collected(idx, span, EntryIntervalKind::kGrace),
            (std::vector<std::size_t>{0}));
  EXPECT_TRUE(idx.check_invariants().empty());
}

TEST(BatchIndexUnit, RandomizedDifferentialAgainstBruteForce) {
  // Insert/erase/update churn with interleaved overlap queries, each
  // checked against a brute-force scan of the live set. Queue positions are
  // unique stamps, so position equality identifies the exact result set.
  struct Entry {
    std::unique_ptr<Alarm> alarm;
    std::unique_ptr<Batch> batch;
  };
  Rng rng(20260807);
  BatchIndex idx;
  std::vector<Entry> live;
  std::uint64_t next_id = 1;
  std::size_t next_pos = 0;

  const auto make_entry = [&] {
    Entry e;
    e.alarm = one_shot(next_id++, 1 + static_cast<std::int64_t>(rng.next_below(5000)),
                       1 + static_cast<std::int64_t>(rng.next_below(300)));
    e.batch = std::make_unique<Batch>(e.alarm.get());
    e.batch->set_queue_pos(next_pos++);
    return e;
  };

  for (int op = 0; op < 3000; ++op) {
    const std::uint32_t dice = rng.next_below(100);
    if (live.empty() || dice < 35) {
      live.push_back(make_entry());
      idx.insert(live.back().batch.get());
    } else if (dice < 50) {
      const std::size_t victim = rng.next_below(static_cast<std::uint32_t>(live.size()));
      idx.erase(live[victim].batch.get());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else if (dice < 65) {
      // Re-key: reschedule the member, refresh the cached intervals, and
      // push the new key through update().
      const std::size_t target = rng.next_below(static_cast<std::uint32_t>(live.size()));
      live[target].alarm->reschedule(
          at_s(1 + static_cast<std::int64_t>(rng.next_below(5000))));
      live[target].batch->refresh();
      idx.update(live[target].batch.get());
    } else {
      const std::int64_t qs = 1 + static_cast<std::int64_t>(rng.next_below(5200));
      const TimeInterval query(at_s(qs),
                               at_s(qs + static_cast<std::int64_t>(rng.next_below(400))));
      std::vector<std::size_t> expected;
      for (const Entry& e : live) {
        if (e.batch->grace_interval().overlaps(query)) {
          expected.push_back(e.batch->queue_pos());
        }
      }
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(collected(idx, query, EntryIntervalKind::kGrace), expected)
          << "op " << op;
    }
    if (op % 100 == 0) {
      const std::vector<std::string> issues = idx.check_invariants();
      ASSERT_TRUE(issues.empty()) << "op " << op << ": " << issues.front();
    }
    ASSERT_EQ(idx.size(), live.size());
  }
}

// ---------------------------------------------------------------------------
// Manager-level differential: every insert under slow checks replays the
// linear reference and asserts candidate-set and selection equality.
// ---------------------------------------------------------------------------

std::unique_ptr<AlignmentPolicy> make_policy(int which) {
  switch (which) {
    case 0: return std::make_unique<ExactPolicy>();
    case 1: return std::make_unique<NativePolicy>();
    case 2: return std::make_unique<SimtyPolicy>();
    default: return std::make_unique<DurationSimtyPolicy>();
  }
}

hw::ComponentSet random_hardware(Rng& rng) {
  static const hw::ComponentSet kPalette[] = {
      hw::ComponentSet::none(),
      hw::ComponentSet{hw::Component::kWifi},
      hw::ComponentSet{hw::Component::kWifi, hw::Component::kCellular},
      hw::ComponentSet{hw::Component::kWps},
      hw::ComponentSet{hw::Component::kGps},
      hw::ComponentSet{hw::Component::kAccelerometer},
      hw::ComponentSet{hw::Component::kScreen},
      hw::ComponentSet{hw::Component::kVibrator, hw::Component::kSpeaker},
  };
  return kPalette[rng.next_below(8)];
}

class BatchIndexDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchIndexDifferentialTest, ThirtyThousandOpsMatchLinearReference) {
  test::FrameworkHarness h;
  h.init(make_policy(GetParam()));
  h.manager_->set_slow_queue_checks(true);

  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 3);
  std::vector<AlarmId> ids;

  const auto register_one = [&](int i) {
    AlarmSpec spec;
    if (rng.chance(0.6)) {
      const Duration repeat =
          Duration::seconds(20 * (1 + static_cast<int>(rng.next_below(30))));
      spec = AlarmSpec::repeating("churn." + std::to_string(i),
                                  AppId{rng.next_below(16)},
                                  rng.chance(0.5) ? RepeatMode::kStatic
                                                  : RepeatMode::kDynamic,
                                  repeat, 0.1, 0.6);
    } else {
      spec = AlarmSpec::one_shot(
          "churn." + std::to_string(i), AppId{rng.next_below(16)},
          Duration::seconds(1 + static_cast<int>(rng.next_below(180))));
    }
    spec.kind = rng.chance(0.7) ? AlarmKind::kWakeup : AlarmKind::kNonWakeup;
    const TimePoint nominal =
        h.sim_.now() + Duration::seconds(1 + static_cast<int>(rng.next_below(1200)));
    ids.push_back(h.manager_->register_alarm(
        spec, nominal,
        test::FrameworkHarness::task(random_hardware(rng),
                                     Duration::millis(rng.next_below(4000)))));
  };

  // Seed population, then a long mixed insert/dissolve/deliver/rebatch
  // churn. Four policy instantiations x 8000 rounds > 30k operations, each
  // insert differentially verified by the slow checks.
  for (int i = 0; i < 150; ++i) register_one(i);
  for (int round = 0; round < 8000; ++round) {
    const std::uint32_t dice = rng.next_below(1000);
    if (dice < 150) {
      register_one(10000 + round);
    } else if (dice < 500) {
      const AlarmId id = ids[rng.next_below(static_cast<std::uint32_t>(ids.size()))];
      if (h.manager_->is_registered(id)) {
        h.manager_->set(id, h.sim_.now() + Duration::seconds(
                                               1 + static_cast<int>(rng.next_below(900))));
      }
    } else if (dice < 600) {
      const AlarmId id = ids[rng.next_below(static_cast<std::uint32_t>(ids.size()))];
      if (h.manager_->is_registered(id)) h.manager_->cancel(id);
    } else if (dice < 615) {
      h.manager_->rebatch_all();
    } else {
      h.sim_.run_until(h.sim_.now() + Duration::seconds(5 + rng.next_below(60)));
    }
    if (round % 200 == 0) {
      const std::vector<std::string> issues = h.manager_->check_invariants();
      ASSERT_TRUE(issues.empty()) << "round " << round << ": " << issues.front();
    }
  }
  EXPECT_GT(h.manager_->stats().deliveries, 0u);
}

std::string policy_name(const ::testing::TestParamInfo<int>& info) {
  switch (info.param) {
    case 0: return "Exact";
    case 1: return "Native";
    case 2: return "Simty";
    default: return "SimtyDur";
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, BatchIndexDifferentialTest,
                         ::testing::Values(0, 1, 2, 3), policy_name);

TEST(BatchIndexManager, EmptyQueueFirstInsertAndTouchingWindows) {
  test::FrameworkHarness h;
  h.init(std::make_unique<NativePolicy>());
  h.manager_->set_slow_queue_checks(true);

  // First insert lands in an empty queue through the indexed path.
  AlarmSpec s1 = AlarmSpec::one_shot("a", AppId{1}, Duration::seconds(10));
  h.manager_->register_alarm(s1, h.at(100), test::FrameworkHarness::noop_task());
  ASSERT_EQ(h.manager_->queue(AlarmKind::kWakeup).size(), 1u);

  // Window [110, 120] touches [100, 110] at the shared endpoint — closed
  // intervals overlap there, so NATIVE joins.
  AlarmSpec s2 = AlarmSpec::one_shot("b", AppId{2}, Duration::seconds(10));
  h.manager_->register_alarm(s2, h.at(110), test::FrameworkHarness::noop_task());
  ASSERT_EQ(h.manager_->queue(AlarmKind::kWakeup).size(), 1u);
  EXPECT_EQ(h.manager_->queue(AlarmKind::kWakeup).front()->size(), 2u);

  // One microsecond past the joint window's end: disjoint, new entry.
  AlarmSpec s3 = AlarmSpec::one_shot("c", AppId{3}, Duration::seconds(10));
  h.manager_->register_alarm(s3, h.at(110) + Duration::micros(1),
                             test::FrameworkHarness::noop_task());
  ASSERT_EQ(h.manager_->queue(AlarmKind::kWakeup).size(), 2u);
  EXPECT_TRUE(h.manager_->check_invariants().empty());
}

TEST(BatchIndexManager, RepeatingReinsertChurnKeepsIndexConsistent) {
  test::FrameworkHarness h;
  h.init(std::make_unique<SimtyPolicy>());
  h.manager_->set_slow_queue_checks(true);

  Rng rng(42);
  for (int i = 0; i < 40; ++i) {
    AlarmSpec spec = AlarmSpec::repeating(
        "rep." + std::to_string(i), AppId{static_cast<std::uint32_t>(i % 8)},
        i % 2 == 0 ? RepeatMode::kStatic : RepeatMode::kDynamic,
        Duration::seconds(60 * (1 + static_cast<int>(rng.next_below(5)))), 0.1, 0.5);
    h.manager_->register_alarm(
        spec, h.sim_.now() + Duration::seconds(1 + static_cast<int>(rng.next_below(120))),
        test::FrameworkHarness::task(random_hardware(rng), Duration::seconds(1)));
  }
  // Two hours of deliveries: every delivery dissolves the head entry and
  // reinserts its repeating members through the indexed path.
  for (int step = 0; step < 24; ++step) {
    h.sim_.run_until(h.sim_.now() + Duration::minutes(5));
    const std::vector<std::string> issues = h.manager_->check_invariants();
    ASSERT_TRUE(issues.empty()) << "step " << step << ": " << issues.front();
  }
  EXPECT_GT(h.manager_->stats().deliveries, 100u);
}

}  // namespace
}  // namespace simty::alarm
