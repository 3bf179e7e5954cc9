#include "alarm/batch.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/strings.hpp"

namespace simty::alarm {
namespace {

using hw::Component;
using hw::ComponentSet;

TimePoint at(std::int64_t s) { return TimePoint::origin() + Duration::seconds(s); }

std::unique_ptr<Alarm> imperceptible_alarm(std::uint64_t id, std::int64_t nominal,
                                           std::int64_t repeat, ComponentSet hw_set,
                                           double alpha = 0.75, double beta = 0.96) {
  auto a = std::make_unique<Alarm>(
      AlarmId{id},
      AlarmSpec::repeating(str_format("a%llu", static_cast<unsigned long long>(id)),
                           AppId{1}, RepeatMode::kStatic,
                           Duration::seconds(repeat), alpha, beta),
      at(nominal));
  a->record_delivery(hw_set, Duration::seconds(2));  // learn the profile
  a->reschedule(at(nominal));
  return a;
}

TEST(Batch, SingleMemberAttributesMirrorAlarm) {
  auto a = imperceptible_alarm(1, 100, 300, ComponentSet{Component::kWifi});
  Batch b(a.get());
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.window_interval(), a->window_interval());
  EXPECT_EQ(b.grace_interval(), a->grace_interval());
  EXPECT_EQ(b.hardware(), (ComponentSet{Component::kWifi}));
  EXPECT_FALSE(b.perceptible());
  EXPECT_EQ(b.delivery_time(), at(100));
}

TEST(Batch, WindowIsIntersectionOfMembers) {
  auto a = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi});
  auto b = imperceptible_alarm(2, 100, 300, ComponentSet{Component::kWifi});
  Batch batch(a.get());
  batch.add(b.get());
  // Windows [0,225] and [100,325] -> [100,225].
  EXPECT_EQ(batch.window_interval(), (TimeInterval{at(100), at(225)}));
  // Graces [0,288] and [100,388] -> [100,288].
  EXPECT_EQ(batch.grace_interval(), (TimeInterval{at(100), at(288)}));
  // Delivery time is the max member nominal either way.
  EXPECT_EQ(batch.delivery_time(), at(100));
}

TEST(Batch, HardwareIsUnionOfMembers) {
  auto a = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi});
  auto b = imperceptible_alarm(2, 10, 300, ComponentSet{Component::kWps});
  Batch batch(a.get());
  batch.add(b.get());
  EXPECT_EQ(batch.hardware(),
            (ComponentSet{Component::kWifi, Component::kWps}));
}

TEST(Batch, PerceptibleIfAnyMemberIs) {
  auto quiet = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi});
  auto loud = imperceptible_alarm(
      2, 10, 300, ComponentSet{Component::kSpeaker, Component::kVibrator});
  Batch batch(quiet.get());
  EXPECT_FALSE(batch.perceptible());
  batch.add(loud.get());
  EXPECT_TRUE(batch.perceptible());
}

TEST(Batch, EmptyWindowIntersectionAllowedForImperceptibleEntries) {
  // Two imperceptible alarms whose graces overlap but windows do not
  // (medium time similarity alignment).
  auto a = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi}, 0.5, 0.96);
  auto b = imperceptible_alarm(2, 200, 300, ComponentSet{Component::kWifi}, 0.5, 0.96);
  Batch batch(a.get());
  batch.add(b.get());
  // Windows [0,150] vs [200,350] -> empty; graces [0,288] vs [200,488] -> ok.
  EXPECT_TRUE(batch.window_interval().is_empty());
  EXPECT_EQ(batch.grace_interval(), (TimeInterval{at(200), at(288)}));
  EXPECT_EQ(batch.delivery_time(), at(200));
}

TEST(Batch, PerceptibleEntryWithEmptyWindowThrowsOnDeliveryTime) {
  auto quiet = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi}, 0.1, 0.96);
  auto late = imperceptible_alarm(2, 250, 300, ComponentSet{Component::kWifi}, 0.1, 0.96);
  auto loud = imperceptible_alarm(
      3, 250, 300, ComponentSet{Component::kVibrator}, 0.1, 0.96);
  Batch batch(quiet.get());
  batch.add(late.get());   // imperceptible, empty window overlap: fine
  batch.add(loud.get());   // perceptible member with empty window overlap:
  EXPECT_THROW(batch.delivery_time(), std::logic_error);  // invariant violated
}

TEST(Batch, RemoveRecomputesAttributes) {
  auto a = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi});
  auto b = imperceptible_alarm(2, 100, 300, ComponentSet{Component::kWps});
  Batch batch(a.get());
  batch.add(b.get());
  EXPECT_TRUE(batch.remove(AlarmId{2}));
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.window_interval(), a->window_interval());
  EXPECT_EQ(batch.hardware(), (ComponentSet{Component::kWifi}));
  EXPECT_FALSE(batch.remove(AlarmId{2}));  // already gone
  EXPECT_TRUE(batch.remove(AlarmId{1}));
  EXPECT_TRUE(batch.empty());
}

TEST(Batch, ContainsById) {
  auto a = imperceptible_alarm(7, 0, 300, ComponentSet{Component::kWifi});
  Batch batch(a.get());
  EXPECT_TRUE(batch.contains(AlarmId{7}));
  EXPECT_FALSE(batch.contains(AlarmId{8}));
}

TEST(Batch, DoubleAddRejected) {
  auto a = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi});
  Batch batch(a.get());
  EXPECT_THROW(batch.add(a.get()), std::logic_error);
}

TEST(Batch, ExpectedHoldIsMaxOfMembers) {
  auto a = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi});
  auto b = imperceptible_alarm(2, 10, 300, ComponentSet{Component::kWifi});
  // a and b both learned a 2 s hold; push b's profile to 10 s.
  b->record_delivery(ComponentSet{Component::kWifi}, Duration::seconds(26));
  Batch batch(a.get());
  batch.add(b.get());
  EXPECT_EQ(batch.expected_hold(), Duration::seconds(8));  // EMA: (2*3+26)/4
}

TEST(Batch, RefreshPicksUpRescheduledMembers) {
  auto a = imperceptible_alarm(1, 0, 300, ComponentSet{Component::kWifi});
  Batch batch(a.get());
  a->reschedule(at(500));
  batch.refresh();
  EXPECT_EQ(batch.delivery_time(), at(500));
}

TEST(Batch, DeliveryTimeOfEmptyBatchThrows) {
  Batch batch;
  EXPECT_THROW(batch.delivery_time(), std::logic_error);
}

}  // namespace
}  // namespace simty::alarm
