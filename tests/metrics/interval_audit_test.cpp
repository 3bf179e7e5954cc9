#include "metrics/interval_audit.hpp"

#include <gtest/gtest.h>

#include <iterator>

namespace simty::metrics {
namespace {

TimePoint at(std::int64_t s) { return TimePoint::origin() + Duration::seconds(s); }

alarm::DeliveryRecord record(std::uint64_t id, std::int64_t delivered,
                             std::int64_t repeat, alarm::RepeatMode mode,
                             bool perceptible = false) {
  alarm::DeliveryRecord r;
  // DeliveryRecord::tag is a view: point it at static storage.
  static constexpr const char* kTags[] = {"a0", "a1", "a2", "a3"};
  r.id = alarm::AlarmId{id};
  r.tag = kTags[id % std::size(kTags)];
  r.mode = mode;
  r.repeat_interval = Duration::seconds(repeat);
  r.delivered = at(delivered);
  r.was_perceptible = perceptible;
  return r;
}

TEST(IntervalAudit, TracksMinMaxGapsPerAlarm) {
  IntervalAudit audit;
  audit.observe(record(1, 100, 100, alarm::RepeatMode::kStatic));
  audit.observe(record(1, 210, 100, alarm::RepeatMode::kStatic));
  audit.observe(record(1, 300, 100, alarm::RepeatMode::kStatic));
  ASSERT_NE(audit.find(1), nullptr);
  const GapStats& s = *audit.find(1);
  EXPECT_EQ(s.deliveries, 3u);
  EXPECT_EQ(s.min_gap, Duration::seconds(90));
  EXPECT_EQ(s.max_gap, Duration::seconds(110));
  EXPECT_DOUBLE_EQ(s.min_gap_over_repeat(), 0.9);
  EXPECT_DOUBLE_EQ(s.max_gap_over_repeat(), 1.1);
}

TEST(IntervalAudit, SeparatesAlarms) {
  IntervalAudit audit;
  audit.observe(record(1, 100, 100, alarm::RepeatMode::kStatic));
  audit.observe(record(2, 150, 200, alarm::RepeatMode::kDynamic));
  audit.observe(record(1, 200, 100, alarm::RepeatMode::kStatic));
  audit.observe(record(2, 350, 200, alarm::RepeatMode::kDynamic));
  ASSERT_NE(audit.find(1), nullptr);
  ASSERT_NE(audit.find(2), nullptr);
  EXPECT_EQ(audit.find(1)->max_gap, Duration::seconds(100));
  EXPECT_EQ(audit.find(2)->max_gap, Duration::seconds(200));
}

TEST(IntervalAudit, OneShotsIgnored) {
  IntervalAudit audit;
  audit.observe(record(1, 100, 0, alarm::RepeatMode::kOneShot));
  EXPECT_TRUE(audit.stats().empty());
}

TEST(IntervalAudit, UpperBoundViolationDetected) {
  IntervalAudit audit;
  // Gap of 2.2x ReIn with beta 0.96 -> bound 1.97 violated.
  audit.observe(record(1, 100, 100, alarm::RepeatMode::kStatic));
  audit.observe(record(1, 320, 100, alarm::RepeatMode::kStatic));
  const auto violations = audit.check_bounds(0.96);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_TRUE(violations[0].upper);
  EXPECT_DOUBLE_EQ(violations[0].observed_ratio, 2.2);
}

TEST(IntervalAudit, LowerBoundDependsOnRepeatMode) {
  // Gap of 0.5x ReIn: legal for static (bound 1 - 0.96 = 0.04) but illegal
  // for dynamic (bound 1.0).
  IntervalAudit s_audit;
  s_audit.observe(record(1, 100, 100, alarm::RepeatMode::kStatic));
  s_audit.observe(record(1, 150, 100, alarm::RepeatMode::kStatic));
  EXPECT_TRUE(s_audit.check_bounds(0.96).empty());

  IntervalAudit d_audit;
  d_audit.observe(record(1, 100, 100, alarm::RepeatMode::kDynamic));
  d_audit.observe(record(1, 150, 100, alarm::RepeatMode::kDynamic));
  const auto violations = d_audit.check_bounds(0.96);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_FALSE(violations[0].upper);
}

TEST(IntervalAudit, InBoundsGapsPass) {
  IntervalAudit audit;
  audit.observe(record(1, 100, 100, alarm::RepeatMode::kDynamic));
  audit.observe(record(1, 295, 100, alarm::RepeatMode::kDynamic));  // 1.95x
  EXPECT_TRUE(audit.check_bounds(0.96).empty());
}

TEST(IntervalAudit, SlackAbsorbsWakeLatency) {
  IntervalAudit audit;
  // Dynamic gap a hair under ReIn (latency jitter): with default slack this
  // passes; with zero slack it trips.
  audit.observe(record(1, 100, 100, alarm::RepeatMode::kDynamic));
  alarm::DeliveryRecord second = record(1, 200, 100, alarm::RepeatMode::kDynamic);
  second.delivered = at(200) - Duration::millis(400);
  audit.observe(second);
  EXPECT_TRUE(audit.check_bounds(0.96).empty());
  EXPECT_EQ(audit.check_bounds(0.96, 0.0).size(), 1u);
}

TEST(IntervalAudit, WorstGapRatioSkipsPerceptibleAlarms) {
  IntervalAudit audit;
  // Imperceptible alarm with a 1.9x gap.
  audit.observe(record(1, 100, 100, alarm::RepeatMode::kStatic));
  audit.observe(record(1, 290, 100, alarm::RepeatMode::kStatic));
  // Perceptible alarm with a 3x gap (e.g. user silenced it) must not count.
  audit.observe(record(2, 100, 100, alarm::RepeatMode::kStatic, true));
  audit.observe(record(2, 400, 100, alarm::RepeatMode::kStatic, true));
  EXPECT_DOUBLE_EQ(audit.worst_gap_ratio(), 1.9);
}

TEST(IntervalAudit, FirstDeliveryPerceptibleDoesNotExcludeAlarm) {
  IntervalAudit audit;
  // Footnote-5 pattern: first delivery perceptible (unknown hardware),
  // subsequent ones imperceptible.
  audit.observe(record(1, 100, 100, alarm::RepeatMode::kStatic, true));
  audit.observe(record(1, 290, 100, alarm::RepeatMode::kStatic, false));
  EXPECT_DOUBLE_EQ(audit.worst_gap_ratio(), 1.9);
}

TEST(IntervalAudit, SingleDeliveryHasNoGapData) {
  IntervalAudit audit;
  audit.observe(record(1, 100, 100, alarm::RepeatMode::kStatic));
  EXPECT_TRUE(audit.check_bounds(0.96).empty());
  EXPECT_DOUBLE_EQ(audit.worst_gap_ratio(), 0.0);
}

}  // namespace
}  // namespace simty::metrics
