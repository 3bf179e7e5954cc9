// Unit tests for the alignment policies over hand-built queues, including
// the paper's Fig 2 motivating example.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "alarm/duration_policy.hpp"
#include "alarm/exact_policy.hpp"
#include "alarm/native_policy.hpp"
#include "alarm/simty_policy.hpp"
#include "common/strings.hpp"

namespace simty::alarm {
namespace {

using hw::Component;
using hw::ComponentSet;

TimePoint at(std::int64_t s) { return TimePoint::origin() + Duration::seconds(s); }

struct QueueBuilder {
  std::vector<std::unique_ptr<Alarm>> alarms;
  BatchQueue queue;

  Alarm* make_alarm(std::int64_t nominal_s, std::int64_t repeat_s, double alpha,
                    double beta, ComponentSet hw_set,
                    Duration hold = Duration::seconds(2)) {
    const auto id = static_cast<std::uint64_t>(alarms.size() + 1);
    auto a = std::make_unique<Alarm>(
        AlarmId{id},
        AlarmSpec::repeating(str_format("a%llu", static_cast<unsigned long long>(id)), AppId{1},
                             RepeatMode::kStatic, Duration::seconds(repeat_s),
                             alpha, beta),
        at(nominal_s));
    a->record_delivery(hw_set, hold);  // learn profile (sets perceptibility)
    Alarm* raw = a.get();
    alarms.push_back(std::move(a));
    return raw;
  }

  /// Adds a fresh single-member entry and returns its index.
  std::size_t add_entry(Alarm* a) {
    queue.push_back(std::make_unique<Batch>(a));
    return queue.size() - 1;
  }
};

// ------------------------------------------------------------------ NATIVE

TEST(NativePolicy, JoinsFirstWindowOverlappingEntry) {
  QueueBuilder q;
  q.add_entry(q.make_alarm(0, 600, 0.75, 0.96, ComponentSet{Component::kWifi}));
  q.add_entry(q.make_alarm(100, 600, 0.75, 0.96, ComponentSet{Component::kWifi}));
  // New alarm window [120, 570] overlaps both entries; first wins.
  Alarm* n = q.make_alarm(120, 600, 0.75, 0.96, ComponentSet{Component::kWps});
  NativePolicy policy;
  EXPECT_EQ(policy.select_batch(*n, q.queue), std::optional<std::size_t>(0));
}

TEST(NativePolicy, CreatesNewEntryWhenNoWindowOverlaps) {
  QueueBuilder q;
  q.add_entry(q.make_alarm(0, 600, 0.1, 0.96, ComponentSet{Component::kWifi}));
  Alarm* n = q.make_alarm(300, 600, 0.1, 0.96, ComponentSet{Component::kWifi});
  NativePolicy policy;
  EXPECT_EQ(policy.select_batch(*n, q.queue), std::nullopt);
}

TEST(NativePolicy, IgnoresGraceIntervals) {
  // Graces overlap but windows don't: NATIVE must not align.
  QueueBuilder q;
  q.add_entry(q.make_alarm(0, 600, 0.3, 0.96, ComponentSet{Component::kWifi}));
  Alarm* n = q.make_alarm(200, 600, 0.3, 0.96, ComponentSet{Component::kWifi});
  NativePolicy policy;
  EXPECT_EQ(policy.select_batch(*n, q.queue), std::nullopt);
}

TEST(NativePolicy, ChecksEntryIntersectionNotJustAnyMember) {
  // Entry of two alarms with windows [0,450] and [400,850]: entry window is
  // [400,450]. A new alarm with window [100,300] overlaps the FIRST member
  // but not the entry intersection -> cannot join (§2.1: must overlap
  // every member's window).
  QueueBuilder q;
  Alarm* a = q.make_alarm(0, 600, 0.75, 0.96, ComponentSet{Component::kWifi});
  Alarm* b = q.make_alarm(400, 600, 0.75, 0.96, ComponentSet{Component::kWifi});
  const std::size_t i = q.add_entry(a);
  q.queue[i]->add(b);
  Alarm* n = q.make_alarm(100, 250, 0.8, 0.96, ComponentSet{Component::kWifi});
  NativePolicy policy;
  EXPECT_EQ(policy.select_batch(*n, q.queue), std::nullopt);
}

// ------------------------------------------------------------------- SIMTY

TEST(SimtyPolicy, ReproducesFig2MotivatingExample) {
  // Queue snapshot (Fig 2a): a calendar alarm (speaker&vibrator) and one
  // WPS location alarm; their windows both overlap the new WPS alarm's
  // window. NATIVE picks the first (calendar) entry; SIMTY must pick the
  // WPS entry because its hardware similarity is High.
  QueueBuilder q;
  Alarm* calendar = q.make_alarm(
      60, 1800, 0.2, 0.3, ComponentSet{Component::kSpeaker, Component::kVibrator});
  Alarm* wps1 = q.make_alarm(200, 600, 0.75, 0.96, ComponentSet{Component::kWps});
  q.add_entry(calendar);
  q.add_entry(wps1);
  Alarm* wps2 = q.make_alarm(100, 600, 0.75, 0.96, ComponentSet{Component::kWps});

  NativePolicy native;
  EXPECT_EQ(native.select_batch(*wps2, q.queue), std::optional<std::size_t>(0));

  SimtyPolicy simty;
  EXPECT_EQ(simty.select_batch(*wps2, q.queue), std::optional<std::size_t>(1));
}

TEST(SimtyPolicy, PerceptibleAlarmRequiresWindowOverlap) {
  QueueBuilder q;
  q.add_entry(q.make_alarm(0, 600, 0.3, 0.96, ComponentSet{Component::kWifi}));
  // Perceptible alarm whose grace (== window) only overlaps the entry's
  // grace: not applicable.
  Alarm* loud = q.make_alarm(200, 600, 0.3, 0.5, ComponentSet{Component::kVibrator});
  ASSERT_TRUE(loud->perceptible());
  SimtyPolicy policy;
  EXPECT_EQ(policy.select_batch(*loud, q.queue), std::nullopt);
}

TEST(SimtyPolicy, ImperceptibleAlarmMayJoinViaGraceOverlap) {
  QueueBuilder q;
  q.add_entry(q.make_alarm(0, 600, 0.3, 0.96, ComponentSet{Component::kWifi}));
  // Same timing as the perceptible case above, but imperceptible hardware:
  // medium time similarity is applicable between imperceptible parties.
  Alarm* quiet = q.make_alarm(200, 600, 0.3, 0.96, ComponentSet{Component::kWifi});
  ASSERT_FALSE(quiet->perceptible());
  SimtyPolicy policy;
  EXPECT_EQ(policy.select_batch(*quiet, q.queue), std::optional<std::size_t>(0));
}

TEST(SimtyPolicy, NewlyRegisteredAlarmTreatedPerceptible) {
  QueueBuilder q;
  q.add_entry(q.make_alarm(0, 600, 0.3, 0.96, ComponentSet{Component::kWifi}));
  // Hardware not yet learned -> perceptible by footnote 5 -> grace overlap
  // is not enough.
  auto fresh = std::make_unique<Alarm>(
      AlarmId{99},
      AlarmSpec::repeating("fresh", AppId{2}, RepeatMode::kStatic,
                           Duration::seconds(600), 0.3, 0.96),
      at(200));
  SimtyPolicy policy;
  EXPECT_EQ(policy.select_batch(*fresh, q.queue), std::nullopt);
}

TEST(SimtyPolicy, PrefersHardwareSimilarityOverTimeSimilarity) {
  // Entry 0: window-overlapping (High time) but disjoint hardware.
  // Entry 1: only grace-overlapping (Medium time) but identical hardware.
  // Table 1: rank(hw High, time Medium)=2 < rank(hw Low, time High)=5.
  QueueBuilder q;
  q.add_entry(q.make_alarm(0, 600, 0.2, 0.96, ComponentSet{Component::kAccelerometer}));
  q.add_entry(q.make_alarm(300, 600, 0.2, 0.96, ComponentSet{Component::kWifi}));
  Alarm* n = q.make_alarm(80, 600, 0.2, 0.96, ComponentSet{Component::kWifi});
  // Windows: entry0 [0,120] vs n [80,200] -> High; entry1 [300,420] vs n ->
  // Low, graces [300,876] vs [80,656] -> Medium.
  SimtyPolicy policy;
  EXPECT_EQ(policy.select_batch(*n, q.queue), std::optional<std::size_t>(1));
}

TEST(SimtyPolicy, TimeSimilarityBreaksHardwareTies) {
  // Both entries have identical hardware; entry 1 offers High time
  // similarity, entry 0 only Medium -> entry 1 wins despite being later.
  QueueBuilder q;
  q.add_entry(q.make_alarm(300, 900, 0.1, 0.96, ComponentSet{Component::kWifi}));
  q.add_entry(q.make_alarm(80, 900, 0.3, 0.96, ComponentSet{Component::kWifi}));
  // Queue sorted by delivery time? Here entry order is as added; the policy
  // only cares about rank, then first-found.
  Alarm* n = q.make_alarm(100, 900, 0.3, 0.96, ComponentSet{Component::kWifi});
  // vs entry0: windows [300,390] vs [100,370] -> High actually. Adjust: use
  // alpha small enough that windows don't overlap.
  SimtyPolicy policy;
  const auto pick = policy.select_batch(*n, q.queue);
  ASSERT_TRUE(pick.has_value());
  // Entry 0 window [300,390] vs n [100,370]: overlap -> both High; first
  // found wins.
  EXPECT_EQ(*pick, 0u);
}

TEST(SimtyPolicy, FirstFoundWinsAmongEqualRanks) {
  QueueBuilder q;
  q.add_entry(q.make_alarm(0, 600, 0.75, 0.96, ComponentSet{Component::kWifi}));
  q.add_entry(q.make_alarm(50, 600, 0.75, 0.96, ComponentSet{Component::kWifi}));
  Alarm* n = q.make_alarm(100, 600, 0.75, 0.96, ComponentSet{Component::kWifi});
  SimtyPolicy policy;
  EXPECT_EQ(policy.select_batch(*n, q.queue), std::optional<std::size_t>(0));
}

TEST(SimtyPolicy, ReturnsNulloptOnEmptyQueue) {
  QueueBuilder q;
  Alarm* n = q.make_alarm(0, 600, 0.75, 0.96, ComponentSet{Component::kWifi});
  SimtyPolicy policy;
  EXPECT_EQ(policy.select_batch(*n, q.queue), std::nullopt);
}

TEST(SimtyPolicy, TwoLevelModeCollapsesIdenticalAndPartial) {
  // Under 2-level hardware similarity a partially-overlapping entry found
  // first ties with an identical-hardware entry found later.
  SimilarityConfig cfg;
  cfg.hw_mode = HardwareSimilarityMode::kTwoLevel;
  QueueBuilder q;
  q.add_entry(q.make_alarm(0, 600, 0.75, 0.96,
                           ComponentSet{Component::kWifi, Component::kWps}));
  q.add_entry(q.make_alarm(50, 600, 0.75, 0.96, ComponentSet{Component::kWifi}));
  Alarm* n = q.make_alarm(100, 600, 0.75, 0.96, ComponentSet{Component::kWifi});

  SimtyPolicy three;  // 3-level prefers the identical entry 1
  EXPECT_EQ(three.select_batch(*n, q.queue), std::optional<std::size_t>(1));
  SimtyPolicy two(cfg);  // 2-level ties -> first found (entry 0)
  EXPECT_EQ(two.select_batch(*n, q.queue), std::optional<std::size_t>(0));
}

TEST(SimtyPolicy, WindowOnlyTimeModeRefusesGraceJoins) {
  // Window-only time similarity demotes Medium to Low: the grace-overlap
  // join that the paper's 3-level mode allows is refused.
  SimilarityConfig cfg;
  cfg.time_mode = TimeSimilarityMode::kWindowOnly;
  QueueBuilder q;
  q.add_entry(q.make_alarm(0, 600, 0.3, 0.96, ComponentSet{Component::kWifi}));
  Alarm* quiet = q.make_alarm(200, 600, 0.3, 0.96, ComponentSet{Component::kWifi});
  ASSERT_FALSE(quiet->perceptible());
  SimtyPolicy three;
  EXPECT_EQ(three.select_batch(*quiet, q.queue), std::optional<std::size_t>(0));
  SimtyPolicy window_only(cfg);
  EXPECT_EQ(window_only.select_batch(*quiet, q.queue), std::nullopt);
  // Window overlap still joins under both modes.
  Alarm* near = q.make_alarm(100, 600, 0.3, 0.96, ComponentSet{Component::kWifi});
  EXPECT_EQ(window_only.select_batch(*near, q.queue), std::optional<std::size_t>(0));
  EXPECT_STREQ(to_string(TimeSimilarityMode::kWindowOnly), "window-only");
}

// ------------------------------------------------------------------- EXACT

TEST(ExactPolicy, NeverAligns) {
  QueueBuilder q;
  q.add_entry(q.make_alarm(0, 600, 0.75, 0.96, ComponentSet{Component::kWifi}));
  Alarm* n = q.make_alarm(0, 600, 0.75, 0.96, ComponentSet{Component::kWifi});
  ExactPolicy policy;
  EXPECT_EQ(policy.select_batch(*n, q.queue), std::nullopt);
  EXPECT_EQ(policy.name(), "EXACT");
}

// --------------------------------------------------------------- SIMTY-DUR

TEST(DurationSimilarity, MinMaxRatio) {
  EXPECT_DOUBLE_EQ(duration_similarity(Duration::seconds(5), Duration::seconds(5)), 1.0);
  EXPECT_DOUBLE_EQ(duration_similarity(Duration::seconds(2), Duration::seconds(8)), 0.25);
  EXPECT_DOUBLE_EQ(duration_similarity(Duration::zero(), Duration::seconds(8)), 0.0);
}

TEST(DurationPolicy, BreaksRankTiesByHoldSimilarity) {
  // Two identical-hardware entries, both High time similarity; the new
  // alarm's 10 s hold matches entry 1's 10 s profile better than entry 0's
  // 1 s profile. Base SIMTY picks entry 0 (first found); SIMTY-DUR entry 1.
  QueueBuilder q;
  q.add_entry(q.make_alarm(0, 600, 0.75, 0.96, ComponentSet{Component::kWifi},
                           Duration::seconds(1)));
  q.add_entry(q.make_alarm(50, 600, 0.75, 0.96, ComponentSet{Component::kWifi},
                           Duration::seconds(10)));
  Alarm* n = q.make_alarm(100, 600, 0.75, 0.96, ComponentSet{Component::kWifi},
                          Duration::seconds(10));

  SimtyPolicy base;
  EXPECT_EQ(base.select_batch(*n, q.queue), std::optional<std::size_t>(0));
  DurationSimtyPolicy dur;
  EXPECT_EQ(dur.select_batch(*n, q.queue), std::optional<std::size_t>(1));
  EXPECT_EQ(dur.name(), "SIMTY-DUR");
}

TEST(DurationPolicy, RankStillDominatesDurations) {
  // A better Table-1 rank must not be overridden by duration similarity.
  QueueBuilder q;
  q.add_entry(q.make_alarm(0, 600, 0.75, 0.96, ComponentSet{Component::kWps},
                           Duration::seconds(10)));
  q.add_entry(q.make_alarm(50, 600, 0.75, 0.96, ComponentSet{Component::kWifi},
                           Duration::seconds(1)));
  Alarm* n = q.make_alarm(100, 600, 0.75, 0.96, ComponentSet{Component::kWifi},
                          Duration::seconds(10));
  DurationSimtyPolicy dur;
  EXPECT_EQ(dur.select_batch(*n, q.queue), std::optional<std::size_t>(1));
}

}  // namespace
}  // namespace simty::alarm
