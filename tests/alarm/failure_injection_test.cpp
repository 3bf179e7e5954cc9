// Failure injection: app delivery handlers that throw, fail sporadically,
// or misbehave structurally. The framework must isolate the failure —
// other batch members deliver, schedules continue, invariants hold, and
// the damage is visible in stats.

#include <gtest/gtest.h>

#include <stdexcept>

#include "alarm/native_policy.hpp"
#include "alarm/simty_policy.hpp"
#include "common/rng.hpp"
#include "support/framework_fixture.hpp"

namespace simty::alarm {
namespace {

using hw::Component;
using hw::ComponentSet;

class FailureInjectionTest : public test::FrameworkFixture {};

TEST_F(FailureInjectionTest, ThrowingHandlerDoesNotBreakBatchMates) {
  init(std::make_unique<NativePolicy>());
  const AlarmId bad = manager_->register_alarm(
      AlarmSpec::repeating("crashy", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(100), [](const Alarm&, TimePoint) -> TaskSpec {
        throw std::runtime_error("app crashed in onReceive");
      });
  const AlarmId good = manager_->register_alarm(
      AlarmSpec::repeating("healthy", AppId{2}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(200), task(ComponentSet{Component::kWifi}, Duration::seconds(2)));
  // Same entry (overlapping windows).
  ASSERT_EQ(manager_->queue(AlarmKind::kWakeup).size(), 1u);

  sim_.run_until(at(400));
  // Both "delivered"; the healthy one ran its task.
  EXPECT_EQ(deliveries_of(bad).size(), 1u);
  EXPECT_EQ(deliveries_of(good).size(), 1u);
  EXPECT_EQ(manager_->stats().handler_failures, 1u);
  EXPECT_EQ(wakelocks_->usage(Component::kWifi).cycles, 1u);
  EXPECT_TRUE(manager_->check_invariants().empty());
  // The crashy alarm keeps its schedule (delivered again next interval).
  sim_.run_until(at(1000));
  EXPECT_EQ(deliveries_of(bad).size(), 2u);
  EXPECT_EQ(manager_->stats().handler_failures, 2u);
}

TEST_F(FailureInjectionTest, FailedHandlerDegradesToEmptyTask) {
  init(std::make_unique<SimtyPolicy>());
  const AlarmId bad = manager_->register_alarm(
      AlarmSpec::repeating("crashy", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.5, 0.9),
      at(100), [](const Alarm&, TimePoint) -> TaskSpec {
        throw std::logic_error("boom");
      });
  sim_.run_until(at(300));
  const auto recs = deliveries_of(bad);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_TRUE(recs[0].hardware_used.empty());
  EXPECT_EQ(recs[0].hold, Duration::zero());
  // The learned profile is the empty set: the alarm becomes imperceptible.
  EXPECT_FALSE(manager_->find(bad)->perceptible());
  // Device slept again despite the failure.
  EXPECT_EQ(device_->state(), hw::DeviceState::kAsleep);
}

TEST_F(FailureInjectionTest, SporadicFailuresUnderLoadKeepGuarantees) {
  init(std::make_unique<SimtyPolicy>());
  // Ten alarms whose handlers fail 30% of the time.
  auto flaky_rng = std::make_shared<Rng>(77);
  for (int i = 0; i < 10; ++i) {
    manager_->register_alarm(
        AlarmSpec::repeating("flaky" + std::to_string(i), AppId{1},
                             RepeatMode::kStatic,
                             Duration::seconds(120 + 60 * (i % 4)), 0.5, 0.9),
        at(60 + 13 * i), [flaky_rng](const Alarm&, TimePoint) -> TaskSpec {
          if (flaky_rng->chance(0.3)) throw std::runtime_error("flaky");
          return TaskSpec{ComponentSet{Component::kWifi}, Duration::seconds(1)};
        });
  }
  sim_.run_until(at(3600));
  EXPECT_GT(manager_->stats().handler_failures, 20u);
  EXPECT_GT(manager_->stats().deliveries, 100u);
  EXPECT_TRUE(manager_->check_invariants().empty());
  for (const auto& r : deliveries_) {
    EXPECT_GE(r.delivered, r.nominal) << r.tag;
    if (!r.was_perceptible) {
      EXPECT_LE(r.delivered, r.nominal + r.repeat_interval * 0.9 + model_.wake_latency)
          << r.tag;
    }
  }
}

TEST_F(FailureInjectionTest, HandlerRegisteringDuringDeliveryIsSafe) {
  // A handler that registers ANOTHER alarm mid-delivery (reentrancy).
  init(std::make_unique<NativePolicy>());
  std::uint64_t spawned_deliveries = 0;
  manager_->register_alarm(
      AlarmSpec::repeating("spawner", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.5, 0.9),
      at(100), [&](const Alarm&, TimePoint now) {
        manager_->register_alarm(
            AlarmSpec::one_shot("spawned" + std::to_string(now.us()), AppId{2},
                                Duration::seconds(10)),
            now + Duration::seconds(30),
            [&](const Alarm&, TimePoint) {
              ++spawned_deliveries;
              return TaskSpec{};
            });
        return TaskSpec{};
      });
  sim_.run_until(at(2000));
  EXPECT_GE(spawned_deliveries, 3u);
  EXPECT_TRUE(manager_->check_invariants().empty());
}

TEST_F(FailureInjectionTest, HandlerCancellingItselfOneShotStyle) {
  // A repeating alarm whose handler cancels a DIFFERENT alarm during
  // delivery — the queue mutation must not corrupt the in-flight batch.
  init(std::make_unique<NativePolicy>());
  const AlarmId victim = manager_->register_alarm(
      AlarmSpec::repeating("victim", AppId{2}, RepeatMode::kStatic,
                           Duration::seconds(900), 0.1, 0.9),
      at(2000), noop_task());
  manager_->register_alarm(
      AlarmSpec::repeating("assassin", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.5, 0.9),
      at(100), [&](const Alarm&, TimePoint) {
        if (manager_->is_registered(victim)) manager_->cancel(victim);
        return TaskSpec{};
      });
  sim_.run_until(at(3600));
  EXPECT_FALSE(manager_->is_registered(victim));
  EXPECT_TRUE(deliveries_of(victim).empty());
  EXPECT_TRUE(manager_->check_invariants().empty());
}

}  // namespace
}  // namespace simty::alarm
