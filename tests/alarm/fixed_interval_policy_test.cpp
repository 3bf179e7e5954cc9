#include "alarm/fixed_interval_policy.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/strings.hpp"
#include "support/framework_fixture.hpp"

namespace simty::alarm {
namespace {

using hw::Component;
using hw::ComponentSet;

TEST(FixedIntervalPolicy, NameIncludesInterval) {
  EXPECT_EQ(FixedIntervalPolicy(Duration::seconds(60)).name(), "FIXED-60s");
  EXPECT_EQ(FixedIntervalPolicy(Duration::minutes(5)).name(), "FIXED-300s");
}

TEST(FixedIntervalPolicy, RejectsNonPositiveInterval) {
  EXPECT_THROW(FixedIntervalPolicy(Duration::zero()), std::logic_error);
  EXPECT_THROW(FixedIntervalPolicy(-Duration::seconds(1)), std::logic_error);
}

class FixedIntervalIntegration : public test::FrameworkFixture {};

TEST_F(FixedIntervalIntegration, BatchesWithinSlotOnly) {
  init(std::make_unique<FixedIntervalPolicy>(Duration::seconds(60)));
  // Two imperceptible alarms in the same 60 s slot and one in the next.
  // Graces are wide enough to overlap within the slot.
  auto reg = [&](const char* tag, std::int64_t nominal) {
    return manager_->register_alarm(
        AlarmSpec::repeating(tag, AppId{1}, RepeatMode::kStatic,
                             Duration::seconds(600), 0.5, 0.96),
        at(nominal), task(ComponentSet{Component::kWifi}, Duration::seconds(1)));
  };
  reg("a", 601);  // slot 10
  reg("b", 640);  // slot 10
  reg("c", 661);  // slot 11 — window overlaps a's and b's, but wrong slot
  const auto& q = manager_->queue(AlarmKind::kWakeup);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q[0]->size(), 2u);
  EXPECT_EQ(q[1]->size(), 1u);
}

TEST_F(FixedIntervalIntegration, RespectsDeliveryGuarantees) {
  init(std::make_unique<FixedIntervalPolicy>(Duration::seconds(120)));
  // A perceptible alarm whose window does not reach the slot-mate: must
  // get its own entry even within the slot.
  manager_->register_alarm(
      AlarmSpec::repeating("quiet", AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.05, 0.96),
      at(600), task(ComponentSet{Component::kWifi}, Duration::seconds(1)));
  auto bell = manager_->register_alarm(
      AlarmSpec::repeating("bell", AppId{2}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.0, 0.5),
      at(700),
      task(ComponentSet{Component::kSpeaker, Component::kVibrator},
           Duration::seconds(1)));
  // quiet in slot 5 ([600,720)), bell at 700 also slot 5, but bell's point
  // window [700,700] misses quiet's window [600,630].
  EXPECT_EQ(manager_->queue(AlarmKind::kWakeup).size(), 2u);
  sim_.run_until(at(1000));
  for (const auto& rec : deliveries_of(bell)) {
    EXPECT_LE(rec.delivered, rec.window.end() + model_.wake_latency);
  }
}

TEST_F(FixedIntervalIntegration, QuantizesWakeupsOverALongRun) {
  init(std::make_unique<FixedIntervalPolicy>(Duration::seconds(120)));
  // Several imperceptible alarms with wide graces: wakeups should approach
  // one per occupied slot, far fewer than deliveries.
  for (int i = 0; i < 5; ++i) {
    manager_->register_alarm(
        AlarmSpec::repeating(str_format("s%d", i), AppId{1},
                             RepeatMode::kStatic, Duration::seconds(300), 0.75,
                             0.96),
        at(300 + i * 13), task(ComponentSet{Component::kWifi}, Duration::seconds(1)));
  }
  sim_.run_until(at(3600));
  EXPECT_GT(manager_->stats().deliveries, 40u);
  EXPECT_LT(device_->wakeup_count(), manager_->stats().deliveries / 2);
}

}  // namespace
}  // namespace simty::alarm
