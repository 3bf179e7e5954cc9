#include "apps/trace_replay.hpp"

#include <gtest/gtest.h>

#include <string>

#include "alarm/native_policy.hpp"
#include "apps/app_catalog.hpp"
#include "snapshot/snapshot.hpp"
#include "support/framework_fixture.hpp"

namespace simty::apps {
namespace {

TEST(RecordTrace, ProducesRequestedLengthWithProfileHardware) {
  const AppProfile p = profile_by_name("FollowMee");
  const AppTrace trace = record_trace(p, 100, 42);
  EXPECT_EQ(trace.app_name, "FollowMee");
  ASSERT_EQ(trace.entries.size(), 100u);
  for (const TraceEntry& e : trace.entries) {
    EXPECT_EQ(e.hardware, p.hardware);
    EXPECT_GT(e.hold, Duration::zero());
    EXPECT_LE(e.hold, p.repeat * 0.5);  // clamped
  }
}

TEST(RecordTrace, DeterministicForSameSeedDivergentAcrossSeeds) {
  const AppProfile p = profile_by_name("Moves");
  const AppTrace a = record_trace(p, 50, 7);
  const AppTrace b = record_trace(p, 50, 7);
  const AppTrace c = record_trace(p, 50, 8);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(a.entries[i].hold, b.entries[i].hold);
  }
  bool differs = false;
  for (std::size_t i = 0; i < 50; ++i) {
    differs = differs || a.entries[i].hold != c.entries[i].hold;
  }
  EXPECT_TRUE(differs);
}

TEST(RecordTrace, HoldsAreHeavyTailedAroundBase) {
  const AppProfile p = profile_by_name("Cell Tracker");
  const AppTrace trace = record_trace(p, 2000, 11);
  double sum = 0.0;
  Duration lo = Duration::max(), hi = Duration::zero();
  for (const TraceEntry& e : trace.entries) {
    sum += e.hold.seconds_f();
    lo = std::min(lo, e.hold);
    hi = std::max(hi, e.hold);
  }
  const double mean = sum / 2000.0;
  // Lognormal-ish: mean near base (10 s) but spread is wide.
  EXPECT_GT(mean, 7.0);
  EXPECT_LT(mean, 14.0);
  EXPECT_LT(lo, p.base_hold * 0.5);
  EXPECT_GT(hi, p.base_hold * 1.8);
}

TEST(RecordTrace, RejectsZeroDeliveries) {
  EXPECT_THROW(record_trace(profile_by_name("Moves"), 0, 1), std::logic_error);
}

TEST(ImitatedApp, RejectsEmptyTrace) {
  EXPECT_THROW(ImitatedApp(profile_by_name("Moves"), 0, 1), std::logic_error);
}

// An imitated app whose replayed tasks the test can draw directly.
class Replay : public ImitatedApp {
 public:
  using ImitatedApp::ImitatedApp;
  TraceEntry sample() {
    const alarm::TaskSpec t = next_task();
    return TraceEntry{t.hardware, t.hold};
  }
};

std::vector<AppProfile> irregular_profiles() {
  std::vector<AppProfile> out;
  for (const AppProfile& p : table3_catalog()) {
    if (p.irregular) out.push_back(p);
  }
  return out;
}

TEST(ImitatedApp, LazyReplayEqualsTheRecordedTraceReadCyclically) {
  const std::vector<AppProfile> profiles = irregular_profiles();
  ASSERT_EQ(profiles.size(), 5u);
  std::uint64_t seed = 1000;
  for (const AppProfile& p : profiles) {
    SCOPED_TRACE(p.name);
    const AppTrace eager = record_trace(p, kImitatedTraceLength, ++seed);
    Replay lazy(p, kImitatedTraceLength, seed);
    // Two full passes plus three entries: the replay wraps at the length.
    for (std::size_t i = 0; i < 2 * kImitatedTraceLength + 3; ++i) {
      const TraceEntry& want = eager.entries[i % kImitatedTraceLength];
      const TraceEntry got = lazy.sample();
      ASSERT_EQ(got.hold, want.hold) << "task " << i;
      ASSERT_EQ(got.hardware, want.hardware) << "task " << i;
    }
  }
}

std::string snapshot_of(const ImitatedApp& app) {
  snapshot::Writer w;
  w.begin_section("app", 1);
  app.save(w);
  w.end_section();
  return w.finish();
}

void restore_from(ImitatedApp& app, const std::string& bytes) {
  const snapshot::Reader reader(bytes);
  snapshot::SectionReader s = reader.section("app", 1);
  app.restore(s);
}

TEST(ImitatedApp, RestoredFreshAppContinuesTheStraightReplay) {
  // A restored app has recorded nothing yet; it must still resume on the
  // entries the saving app would have replayed next.
  const AppProfile p = profile_by_name("Moves");
  for (const std::size_t cursor : {0u, 1u, 137u, 255u}) {
    SCOPED_TRACE(cursor);
    Replay straight(p, kImitatedTraceLength, 5);
    for (std::size_t i = 0; i < cursor; ++i) straight.sample();
    const std::string snap = snapshot_of(straight);
    Replay resumed(p, kImitatedTraceLength, 5);
    restore_from(resumed, snap);
    for (std::size_t i = 0; i < kImitatedTraceLength + 3; ++i) {
      ASSERT_EQ(resumed.sample().hold, straight.sample().hold) << "task " << i;
    }
  }
}

TEST(ImitatedApp, RestoreRejectsACursorPastTheTraceLength) {
  const AppProfile p = profile_by_name("Moves");
  const ImitatedApp saved(p, kImitatedTraceLength, 5);
  snapshot::Writer w;
  w.begin_section("app", 1);
  saved.ResidentApp::save(w);
  w.u64(kImitatedTraceLength);  // one past the last entry
  w.end_section();
  const std::string snap = w.finish();

  ImitatedApp fresh(p, kImitatedTraceLength, 5);
  try {
    restore_from(fresh, snap);
    ADD_FAILURE() << "cursor " << kImitatedTraceLength << " restored";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("replay cursor 256"), std::string::npos)
        << e.what();
  }
}

class ImitatedAppTest : public test::FrameworkFixture {};

TEST_F(ImitatedAppTest, ReplaysTraceCyclically) {
  init(std::make_unique<alarm::NativePolicy>());
  const AppProfile p = profile_by_name("Noom Walk");
  const AppTrace trace = record_trace(p, 3, 17);
  ImitatedApp app(p, 3, 17);
  app.launch(*manager_, at(0), alarm::AppId{1});
  sim_.run_until(at(60 * 7 + 30));  // 7 deliveries at ReIn 60
  ASSERT_GE(deliveries_.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(deliveries_[i].hold, trace.entries[i % 3].hold) << "delivery " << i;
  }
}

TEST_F(ImitatedAppTest, IdenticalTraceGivesIdenticalRunsAcrossPolicies) {
  // The point of imitation (§4.1): the same behaviour is replayed under
  // different policies. Verify the app-side holds do not depend on any RNG.
  init(std::make_unique<alarm::NativePolicy>());
  const AppProfile p = profile_by_name("Family Locator");
  const AppTrace trace = record_trace(p, 64, 99);
  ImitatedApp a(p, 64, 99);
  a.launch(*manager_, at(0), alarm::AppId{1});
  sim_.run_until(at(2000));
  const auto first_run = deliveries_;
  ASSERT_GE(first_run.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(first_run[i].hold, trace.entries[i].hold);
  }
}

}  // namespace
}  // namespace simty::apps
