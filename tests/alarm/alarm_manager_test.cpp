#include "alarm/alarm_manager.hpp"

#include <gtest/gtest.h>

#include "alarm/exact_policy.hpp"
#include "alarm/native_policy.hpp"
#include "alarm/simty_policy.hpp"
#include "common/strings.hpp"
#include "support/framework_fixture.hpp"

namespace simty::alarm {
namespace {

using hw::Component;
using hw::ComponentSet;
using test::FrameworkFixture;

class AlarmManagerTest : public FrameworkFixture {};

TEST_F(AlarmManagerTest, DeliversOneShotAtNominalPlusWakeLatency) {
  init(std::make_unique<NativePolicy>());
  const AlarmId id = manager_->register_alarm(
      AlarmSpec::one_shot("reminder", AppId{1}, Duration::seconds(30)), at(100),
      noop_task());
  sim_.run_until(at(200));
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].id, id);
  EXPECT_EQ(deliveries_[0].delivered, at(100) + model_.wake_latency);
  EXPECT_EQ(deliveries_[0].nominal, at(100));
  // One-shot alarms are deregistered after delivery.
  EXPECT_FALSE(manager_->is_registered(id));
  EXPECT_EQ(device_->wakeup_count(), 1u);
}

TEST_F(AlarmManagerTest, StaticRepeatingStaysOnNominalGrid) {
  init(std::make_unique<NativePolicy>());
  const AlarmId id = manager_->register_alarm(
      AlarmSpec::repeating("tick", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(300), 0.0, 0.5),
      at(300), task(ComponentSet{Component::kWifi}, Duration::seconds(2)));
  sim_.run_until(at(1600));
  const auto recs = deliveries_of(id);
  ASSERT_EQ(recs.size(), 5u);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].nominal, at(300) + Duration::seconds(300) * i);
  }
}

TEST_F(AlarmManagerTest, DynamicRepeatingAnchorsAtDeliveryTime) {
  init(std::make_unique<NativePolicy>());
  const AlarmId id = manager_->register_alarm(
      AlarmSpec::repeating("sync", AppId{1}, RepeatMode::kDynamic,
                           Duration::seconds(300), 0.0, 0.5),
      at(300), task(ComponentSet{Component::kWifi}, Duration::seconds(2)));
  sim_.run_until(at(1000));
  const auto recs = deliveries_of(id);
  ASSERT_GE(recs.size(), 2u);
  // Each next nominal equals the previous delivery time + ReIn, so the
  // wake latency compounds: deliveries drift behind the fixed grid.
  EXPECT_EQ(recs[1].nominal, recs[0].delivered + Duration::seconds(300));
  EXPECT_GT(recs[1].nominal, at(600));
}

TEST_F(AlarmManagerTest, NativeAlignsOverlappingWindowsIntoOneWakeup) {
  init(std::make_unique<NativePolicy>());
  const AlarmId a = manager_->register_alarm(
      AlarmSpec::repeating("a", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(100), task(ComponentSet{Component::kWifi}, Duration::seconds(2)));
  const AlarmId b = manager_->register_alarm(
      AlarmSpec::repeating("b", AppId{2}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(300), task(ComponentSet{Component::kWifi}, Duration::seconds(2)));
  // Windows [100,550] and [300,750] overlap -> one entry, one wakeup, both
  // delivered at the entry delivery time (max nominal = 300).
  EXPECT_EQ(manager_->queue(AlarmKind::kWakeup).size(), 1u);
  sim_.run_until(at(400));
  ASSERT_EQ(deliveries_.size(), 2u);
  EXPECT_EQ(device_->wakeup_count(), 1u);
  EXPECT_EQ(deliveries_of(a)[0].delivered, deliveries_of(b)[0].delivered);
  EXPECT_EQ(deliveries_[0].delivered, at(300) + model_.wake_latency);
  EXPECT_EQ(deliveries_[0].batch_size, 2u);
}

TEST_F(AlarmManagerTest, ExactPolicyWakesPerAlarm) {
  init(std::make_unique<ExactPolicy>());
  manager_->register_alarm(
      AlarmSpec::repeating("a", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(100), noop_task());
  manager_->register_alarm(
      AlarmSpec::repeating("b", AppId{2}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(300), noop_task());
  EXPECT_EQ(manager_->queue(AlarmKind::kWakeup).size(), 2u);
  sim_.run_until(at(400));
  EXPECT_EQ(deliveries_.size(), 2u);
  EXPECT_EQ(device_->wakeup_count(), 2u);
}

TEST_F(AlarmManagerTest, CancelRemovesFromQueueAndRegistry) {
  init(std::make_unique<NativePolicy>());
  const AlarmId id = manager_->register_alarm(
      AlarmSpec::one_shot("x", AppId{1}, Duration::seconds(30)), at(100),
      noop_task());
  manager_->cancel(id);
  EXPECT_FALSE(manager_->is_registered(id));
  EXPECT_TRUE(manager_->queue(AlarmKind::kWakeup).empty());
  sim_.run_until(at(200));
  EXPECT_TRUE(deliveries_.empty());
  EXPECT_EQ(device_->wakeup_count(), 0u);
  EXPECT_THROW(manager_->cancel(id), std::logic_error);
}

TEST_F(AlarmManagerTest, CancelDissolvesSharedEntry) {
  init(std::make_unique<NativePolicy>());
  const AlarmId a = manager_->register_alarm(
      AlarmSpec::repeating("a", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(100), noop_task());
  const AlarmId b = manager_->register_alarm(
      AlarmSpec::repeating("b", AppId{2}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(300), noop_task());
  ASSERT_EQ(manager_->queue(AlarmKind::kWakeup).size(), 1u);
  manager_->cancel(a);
  // b remains, now alone; its delivery time reverts to its own nominal.
  ASSERT_EQ(manager_->queue(AlarmKind::kWakeup).size(), 1u);
  EXPECT_EQ(manager_->queue(AlarmKind::kWakeup)[0]->delivery_time(), at(300));
  sim_.run_until(at(400));
  EXPECT_EQ(deliveries_of(b).size(), 1u);
  EXPECT_EQ(deliveries_of(a).size(), 0u);
}

TEST_F(AlarmManagerTest, SetReschedulesAndRealignsEntry) {
  init(std::make_unique<NativePolicy>());
  const AlarmId a = manager_->register_alarm(
      AlarmSpec::repeating("a", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(100), noop_task());
  manager_->register_alarm(
      AlarmSpec::repeating("b", AppId{2}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(300), noop_task());
  ASSERT_EQ(manager_->queue(AlarmKind::kWakeup).size(), 1u);
  // Re-registering a while it is still queued dissolves the shared entry
  // and reinserts both (§2.1's realignment).
  manager_->set(a, at(2000));
  EXPECT_EQ(manager_->queue(AlarmKind::kWakeup).size(), 2u);
  EXPECT_EQ(manager_->stats().realignments, 1u);
  EXPECT_EQ(manager_->find(a)->nominal(), at(2000));
}

TEST_F(AlarmManagerTest, QueueSortedByDeliveryTime) {
  init(std::make_unique<ExactPolicy>());
  manager_->register_alarm(AlarmSpec::one_shot("late", AppId{1}, Duration::seconds(10)),
                           at(500), noop_task());
  manager_->register_alarm(AlarmSpec::one_shot("early", AppId{1}, Duration::seconds(10)),
                           at(100), noop_task());
  const auto& q = manager_->queue(AlarmKind::kWakeup);
  ASSERT_EQ(q.size(), 2u);
  EXPECT_LT(q[0]->delivery_time(), q[1]->delivery_time());
}

TEST_F(AlarmManagerTest, HardwareProfileLearnedAfterFirstDelivery) {
  init(std::make_unique<SimtyPolicy>());
  const AlarmId id = manager_->register_alarm(
      AlarmSpec::repeating("sync", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(300), 0.5, 0.9),
      at(100), task(ComponentSet{Component::kWifi}, Duration::seconds(3)));
  EXPECT_FALSE(manager_->find(id)->hardware_known());
  EXPECT_TRUE(manager_->find(id)->perceptible());  // footnote 5
  sim_.run_until(at(200));
  EXPECT_TRUE(manager_->find(id)->hardware_known());
  EXPECT_EQ(manager_->find(id)->hardware(), (ComponentSet{Component::kWifi}));
  EXPECT_FALSE(manager_->find(id)->perceptible());
}

TEST_F(AlarmManagerTest, DeliverySessionWakelocksHardware) {
  init(std::make_unique<NativePolicy>());
  manager_->register_alarm(
      AlarmSpec::repeating("scan", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.5, 0.9),
      at(100), task(ComponentSet{Component::kWps}, Duration::seconds(10)));
  sim_.run_until(at(300));
  EXPECT_EQ(wakelocks_->usage(Component::kWps).cycles, 1u);
  EXPECT_EQ(wakelocks_->usage(Component::kWps).on_time, Duration::seconds(10));
  // The device stayed awake for the task and went back to sleep after.
  EXPECT_EQ(device_->state(), hw::DeviceState::kAsleep);
}

TEST_F(AlarmManagerTest, AlignedIdenticalTasksShareOneHardwareCycle) {
  init(std::make_unique<NativePolicy>());
  // Two WPS alarms aligned into one entry: the WPS powers up once (its
  // serial fraction is 0 -> pure piggybacking).
  for (int i = 0; i < 2; ++i) {
    manager_->register_alarm(
        AlarmSpec::repeating("scan" + std::to_string(i), AppId{1},
                             RepeatMode::kStatic, Duration::seconds(600), 0.75, 0.96),
        at(100 + i * 50), task(ComponentSet{Component::kWps}, Duration::seconds(10)));
  }
  sim_.run_until(at(400));
  EXPECT_EQ(deliveries_.size(), 2u);
  EXPECT_EQ(device_->wakeup_count(), 1u);
  EXPECT_EQ(wakelocks_->usage(Component::kWps).cycles, 1u);
  EXPECT_EQ(wakelocks_->usage(Component::kWps).acquisitions, 2u);
  EXPECT_EQ(wakelocks_->usage(Component::kWps).on_time, Duration::seconds(10));
}

TEST_F(AlarmManagerTest, SerializedComponentExtendsOnTime) {
  init(std::make_unique<NativePolicy>());
  // Wi-Fi serializes 40% of each predecessor hold: two 5 s syncs aligned
  // hold the radio 5 * 0.4 + 5 = 7 s in one cycle.
  for (int i = 0; i < 2; ++i) {
    manager_->register_alarm(
        AlarmSpec::repeating("sync" + std::to_string(i), AppId{1},
                             RepeatMode::kStatic, Duration::seconds(600), 0.75, 0.96),
        at(100 + i * 50), task(ComponentSet{Component::kWifi}, Duration::seconds(5)));
  }
  sim_.run_until(at(400));
  EXPECT_EQ(wakelocks_->usage(Component::kWifi).cycles, 1u);
  EXPECT_EQ(wakelocks_->usage(Component::kWifi).on_time, Duration::seconds(7));
}

TEST_F(AlarmManagerTest, NonWakeupAlarmWaitsForDeviceWake) {
  init(std::make_unique<NativePolicy>());
  AlarmSpec spec = AlarmSpec::repeating("lazy", AppId{1}, RepeatMode::kStatic,
                                        Duration::seconds(600), 0.1, 0.9);
  spec.kind = AlarmKind::kNonWakeup;
  const AlarmId lazy = manager_->register_alarm(
      spec, at(100), task(ComponentSet{Component::kWifi}, Duration::seconds(1)));
  // Nothing wakes the device at 100; the non-wakeup alarm must wait.
  sim_.run_until(at(400));
  EXPECT_TRUE(deliveries_of(lazy).empty());
  // A wakeup alarm at 500 wakes the device; the pending non-wakeup alarm
  // rides along.
  manager_->register_alarm(AlarmSpec::one_shot("wake", AppId{2}, Duration::seconds(10)),
                           at(500), noop_task());
  sim_.run_until(at(600));
  const auto recs = deliveries_of(lazy);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].delivered, at(500) + model_.wake_latency);
}

TEST_F(AlarmManagerTest, NonWakeupAlarmDeliveredWhileDeviceAwake) {
  init(std::make_unique<NativePolicy>());
  // Keep the device awake from 100 with a long CPU-bound task.
  manager_->register_alarm(
      AlarmSpec::one_shot("busy", AppId{1}, Duration::seconds(5)), at(100),
      task(ComponentSet{Component::kWifi}, Duration::seconds(60)));
  AlarmSpec spec = AlarmSpec::repeating("lazy", AppId{2}, RepeatMode::kStatic,
                                        Duration::seconds(600), 0.1, 0.9);
  spec.kind = AlarmKind::kNonWakeup;
  const AlarmId lazy = manager_->register_alarm(spec, at(130), noop_task());
  sim_.run_until(at(200));
  const auto recs = deliveries_of(lazy);
  ASSERT_EQ(recs.size(), 1u);
  // Delivered at its own nominal time because the device was already awake.
  EXPECT_EQ(recs[0].delivered, at(130));
  EXPECT_EQ(device_->wakeup_count(), 1u);
}

TEST_F(AlarmManagerTest, WakeupAndNonWakeupQueuesAreSeparate) {
  init(std::make_unique<NativePolicy>());
  AlarmSpec nw = AlarmSpec::repeating("nw", AppId{1}, RepeatMode::kStatic,
                                      Duration::seconds(600), 0.75, 0.96);
  nw.kind = AlarmKind::kNonWakeup;
  manager_->register_alarm(nw, at(100), noop_task());
  manager_->register_alarm(
      AlarmSpec::repeating("w", AppId{2}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.75, 0.96),
      at(100), noop_task());
  // Overlapping windows but different kinds -> not batched together.
  EXPECT_EQ(manager_->queue(AlarmKind::kWakeup).size(), 1u);
  EXPECT_EQ(manager_->queue(AlarmKind::kNonWakeup).size(), 1u);
}

TEST_F(AlarmManagerTest, StatsCountRegistrationsAndDeliveries) {
  init(std::make_unique<NativePolicy>());
  manager_->register_alarm(
      AlarmSpec::repeating("a", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(300), 0.0, 0.5),
      at(300), noop_task());
  sim_.run_until(at(1000));
  EXPECT_EQ(manager_->stats().registrations, 1u);
  EXPECT_EQ(manager_->stats().deliveries, 3u);  // 300, 600, 900 (+latency)
  EXPECT_EQ(manager_->stats().batches_delivered, 3u);
}

TEST_F(AlarmManagerTest, RegistrationInThePastRejected) {
  init(std::make_unique<NativePolicy>());
  sim_.schedule_at(at(100), [] {});
  sim_.run_all();
  EXPECT_THROW(manager_->register_alarm(
                   AlarmSpec::one_shot("x", AppId{1}, Duration::seconds(10)), at(50),
                   noop_task()),
               std::logic_error);
}

TEST_F(AlarmManagerTest, RtcTracksQueueHead) {
  init(std::make_unique<ExactPolicy>());
  manager_->register_alarm(AlarmSpec::one_shot("b", AppId{1}, Duration::seconds(10)),
                           at(500), noop_task());
  ASSERT_TRUE(rtc_->programmed().has_value());
  EXPECT_EQ(*rtc_->programmed(), at(500));
  // An earlier alarm re-targets the RTC.
  manager_->register_alarm(AlarmSpec::one_shot("a", AppId{1}, Duration::seconds(10)),
                           at(200), noop_task());
  EXPECT_EQ(*rtc_->programmed(), at(200));
  sim_.run_until(at(1000));
  // Queue drained -> RTC cleared.
  EXPECT_FALSE(rtc_->programmed().has_value());
}

TEST_F(AlarmManagerTest, HealthyManagerHasNoInvariantIssues) {
  init(std::make_unique<NativePolicy>());
  for (int i = 0; i < 6; ++i) {
    manager_->register_alarm(
        AlarmSpec::repeating(str_format("a%d", i), AppId{1}, RepeatMode::kStatic,
                             Duration::seconds(300 + i * 60), 0.5, 0.9),
        at(100 + i * 40), task(ComponentSet{Component::kWifi}, Duration::seconds(1)));
  }
  EXPECT_TRUE(manager_->check_invariants().empty());
  sim_.run_until(at(2000));
  EXPECT_TRUE(manager_->check_invariants().empty());
}

}  // namespace
}  // namespace simty::alarm
