// Proves the incremental queue maintenance (upper_bound insert + single-
// batch reposition) keeps exactly the order the old full stable_sort
// produced. With slow queue checks enabled, AlarmManager::sort_queue runs
// the stable_sort equivalence assertion after every insert; these tests
// drive randomized register/set/cancel/rebatch/deliver workloads through
// all four policies, so any divergence throws mid-run, and audit
// check_invariants() along the way.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "alarm/alarm_manager.hpp"
#include "alarm/duration_policy.hpp"
#include "alarm/exact_policy.hpp"
#include "alarm/native_policy.hpp"
#include "alarm/simty_policy.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "support/framework_fixture.hpp"

namespace simty::alarm {
namespace {

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

class QueueOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(QueueOrderTest, IncrementalInsertMatchesStableSortUnderChurn) {
  test::FrameworkHarness h;
  h.init(make_policy(GetParam()));
  h.manager_->set_slow_queue_checks(true);

  Rng rng(static_cast<std::uint64_t>(GetParam()) + 11);
  std::vector<AlarmId> ids;

  // Registration wave: mixed kinds, modes, and windows, with nominal times
  // packed tightly enough to force batching and delivery-time ties.
  for (int i = 0; i < 120; ++i) {
    const AppId app{static_cast<std::uint32_t>(i % 12)};
    const bool wakeup = rng.chance(0.7);
    AlarmSpec spec;
    if (rng.chance(0.6)) {
      const Duration repeat = Duration::seconds(30 * (1 + static_cast<int>(rng.next_below(20))));
      spec = AlarmSpec::repeating("churn." + std::to_string(i), app,
                                  rng.chance(0.5) ? RepeatMode::kStatic
                                                  : RepeatMode::kDynamic,
                                  repeat, 0.1, 0.5);
    } else {
      spec = AlarmSpec::one_shot("churn." + std::to_string(i), app,
                                 Duration::seconds(1 + static_cast<int>(rng.next_below(120))));
    }
    spec.kind = wakeup ? AlarmKind::kWakeup : AlarmKind::kNonWakeup;
    const TimePoint nominal =
        h.sim_.now() + Duration::seconds(1 + static_cast<int>(rng.next_below(900)));
    ids.push_back(
        h.manager_->register_alarm(spec, nominal, test::FrameworkHarness::noop_task()));
  }

  // Churn wave: re-register (the realignment path), cancel, rebatch, and
  // let the simulation deliver (repeating alarms reinsert on delivery).
  for (int round = 0; round < 40; ++round) {
    const std::uint32_t dice = rng.next_below(100);
    if (dice < 40) {
      const AlarmId id = ids[rng.next_below(static_cast<std::uint32_t>(ids.size()))];
      if (h.manager_->is_registered(id)) {
        h.manager_->set(id, h.sim_.now() + Duration::seconds(
                                               1 + static_cast<int>(rng.next_below(600))));
      }
    } else if (dice < 55) {
      const AlarmId id = ids[rng.next_below(static_cast<std::uint32_t>(ids.size()))];
      if (h.manager_->is_registered(id)) h.manager_->cancel(id);
    } else if (dice < 70) {
      h.manager_->rebatch_all();
    } else {
      h.sim_.run_until(h.sim_.now() + Duration::seconds(30 + rng.next_below(90)));
    }
    const std::vector<std::string> issues = h.manager_->check_invariants();
    ASSERT_TRUE(issues.empty()) << "round " << round << ": " << issues.front();
  }
}

TEST_P(QueueOrderTest, ThirtyThousandOpsKeepStableSortOrder) {
  test::FrameworkHarness h;
  h.init(make_policy(GetParam()));
  h.manager_->set_slow_queue_checks(true);

  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 3);
  std::vector<AlarmId> ids;

  const auto register_one = [&](int i) {
    const std::string tag = str_format("churn.%d", i);
    AlarmSpec spec;
    if (rng.chance(0.6)) {
      const Duration repeat =
          Duration::seconds(20 * (1 + static_cast<int>(rng.next_below(30))));
      spec = AlarmSpec::repeating(tag, AppId{rng.next_below(16)},
                                  rng.chance(0.5) ? RepeatMode::kStatic
                                                  : RepeatMode::kDynamic,
                                  repeat, 0.1, 0.6);
    } else {
      spec = AlarmSpec::one_shot(
          tag, AppId{rng.next_below(16)},
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
  // insert checked against a stable_sort by the slow checks.
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

INSTANTIATE_TEST_SUITE_P(AllPolicies, QueueOrderTest, ::testing::Values(0, 1, 2, 3),
                         policy_name);

TEST(QueueOrderCases, EmptyQueueFirstInsertAndTouchingWindows) {
  test::FrameworkHarness h;
  h.init(std::make_unique<NativePolicy>());
  h.manager_->set_slow_queue_checks(true);

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

TEST(QueueOrderCases, RepeatingReinsertChurnKeepsQueueConsistent) {
  test::FrameworkHarness h;
  h.init(std::make_unique<SimtyPolicy>());
  h.manager_->set_slow_queue_checks(true);

  Rng rng(42);
  for (int i = 0; i < 40; ++i) {
    AlarmSpec spec = AlarmSpec::repeating(
        str_format("rep.%d", i), AppId{static_cast<std::uint32_t>(i % 8)},
        i % 2 == 0 ? RepeatMode::kStatic : RepeatMode::kDynamic,
        Duration::seconds(60 * (1 + static_cast<int>(rng.next_below(5)))), 0.1, 0.5);
    h.manager_->register_alarm(
        spec, h.sim_.now() + Duration::seconds(1 + static_cast<int>(rng.next_below(120))),
        test::FrameworkHarness::task(random_hardware(rng), Duration::seconds(1)));
  }
  // Two hours of deliveries: every delivery dissolves the head entry and
  // reinserts its repeating members.
  for (int step = 0; step < 24; ++step) {
    h.sim_.run_until(h.sim_.now() + Duration::minutes(5));
    const std::vector<std::string> issues = h.manager_->check_invariants();
    ASSERT_TRUE(issues.empty()) << "step " << step << ": " << issues.front();
  }
  EXPECT_GT(h.manager_->stats().deliveries, 100u);
}

}  // namespace
}  // namespace simty::alarm
