#include "trace/delivery_log.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>

#include "alarm/native_policy.hpp"
#include "apps/app_catalog.hpp"
#include "support/framework_fixture.hpp"

namespace simty::trace {
namespace {

using hw::Component;
using hw::ComponentSet;

// The record views `tag`: pass literals or strings that outlive the record.
alarm::DeliveryRecord sample_record(std::uint64_t id, std::string_view tag) {
  alarm::DeliveryRecord r;
  r.id = alarm::AlarmId{id};
  r.tag = tag;
  r.app = alarm::AppId{7};
  r.kind = alarm::AlarmKind::kWakeup;
  r.mode = alarm::RepeatMode::kDynamic;
  r.repeat_interval = Duration::seconds(200);
  r.nominal = TimePoint::from_us(123'456'789);
  r.delivered = TimePoint::from_us(123'706'789);
  r.window = TimeInterval{r.nominal, r.nominal + Duration::seconds(150)};
  r.was_perceptible = false;
  r.hardware_used = ComponentSet{Component::kWifi, Component::kCellular};
  r.hold = Duration::millis(2500);
  r.batch_size = 3;
  return r;
}

TEST(DeliveryLog, CsvRoundTripPreservesEverything) {
  DeliveryLog log;
  log.observe(sample_record(1, "line.sync"));
  log.observe(sample_record(2, "fb.sync"));
  const DeliveryLog back = DeliveryLog::from_csv(log.to_csv());
  ASSERT_EQ(back.size(), 2u);
  const alarm::DeliveryRecord& r = back.records()[0];
  const alarm::DeliveryRecord& orig = log.records()[0];
  EXPECT_EQ(r.id, orig.id);
  EXPECT_EQ(r.tag, orig.tag);
  EXPECT_EQ(r.app, orig.app);
  EXPECT_EQ(r.kind, orig.kind);
  EXPECT_EQ(r.mode, orig.mode);
  EXPECT_EQ(r.repeat_interval, orig.repeat_interval);
  EXPECT_EQ(r.nominal, orig.nominal);
  EXPECT_EQ(r.delivered, orig.delivered);
  EXPECT_EQ(r.window, orig.window);
  EXPECT_EQ(r.was_perceptible, orig.was_perceptible);
  EXPECT_EQ(r.hardware_used, orig.hardware_used);
  EXPECT_EQ(r.hold, orig.hold);
  EXPECT_EQ(r.batch_size, orig.batch_size);
}

TEST(DeliveryLog, HostileTagsRoundTrip) {
  // ',' shifts every later field, '|' corrupts the hardware set on reload,
  // and a newline splits the row — all must survive via tag escaping.
  const std::string hostile[] = {
      "a,b",         "pipe|tag",    "back\\slash", "tricky\\c,mix",
      "line\nbreak", "cr\rreturn",  ",|\\\n\r",    "plain.tag",
  };
  DeliveryLog log;
  std::uint64_t id = 1;
  for (const std::string& tag : hostile) log.observe(sample_record(id++, tag));
  const DeliveryLog back = DeliveryLog::from_csv(log.to_csv());
  ASSERT_EQ(back.size(), std::size(hostile));
  for (std::size_t i = 0; i < std::size(hostile); ++i) {
    EXPECT_EQ(back.records()[i].tag, hostile[i]) << i;
    // The other fields must not have shifted.
    EXPECT_EQ(back.records()[i].hardware_used,
              (ComponentSet{Component::kWifi, Component::kCellular}))
        << i;
    EXPECT_EQ(back.records()[i].batch_size, 3u) << i;
  }
}

TEST(DeliveryLog, RejectsBadTagEscapes) {
  DeliveryLog log;
  log.observe(sample_record(1, "x"));
  std::string dangling = log.to_csv();
  auto pos = dangling.find("1,x,");
  ASSERT_NE(pos, std::string::npos);
  dangling.replace(pos, 4, "1,x\\,");  // trailing backslash in the tag field
  EXPECT_THROW(DeliveryLog::from_csv(dangling), std::runtime_error);

  std::string unknown = log.to_csv();
  pos = unknown.find("1,x,");
  ASSERT_NE(pos, std::string::npos);
  unknown.replace(pos, 4, "1,x\\zq,");  // '\z' is not an escape we emit
  EXPECT_THROW(DeliveryLog::from_csv(unknown), std::runtime_error);
}

TEST(DeliveryLog, RejectsNegativeUnsignedFields) {
  DeliveryLog log;
  log.observe(sample_record(4, "neg"));
  const std::string csv = log.to_csv();

  // Flip each unsigned column to a negative value; each must throw rather
  // than wrap through the cast (previously -1 loaded as 2^64-1 / 2^32-1).
  const std::string negative_id = [&] {
    std::string s = csv;
    const auto p = s.find("\n4,");
    return s.replace(p, 3, "\n-4,");
  }();
  EXPECT_THROW(DeliveryLog::from_csv(negative_id), std::runtime_error);

  const std::string negative_app = [&] {
    std::string s = csv;
    const auto p = s.find(",7,wakeup");
    return s.replace(p, 3, ",-7,");
  }();
  EXPECT_THROW(DeliveryLog::from_csv(negative_app), std::runtime_error);

  const std::string huge_app = [&] {
    std::string s = csv;
    const auto p = s.find(",7,wakeup");
    return s.replace(p, 3, ",4294967296,");
  }();
  EXPECT_THROW(DeliveryLog::from_csv(huge_app), std::runtime_error);

  const std::string negative_batch = [&] {
    std::string s = csv;
    const auto p = s.rfind(",3\n");
    return s.replace(p, 3, ",-3\n");
  }();
  EXPECT_THROW(DeliveryLog::from_csv(negative_batch), std::runtime_error);
}

TEST(DeliveryLog, RandomizedTagsRoundTrip) {
  // Property: any tag drawn from the full hostile alphabet survives a CSV
  // round trip with every other field intact.
  const char alphabet[] = {',', '|', '\\', '\n', '\r', 'a', 'z', '.', ' ', '0'};
  Rng rng(20260807);
  DeliveryLog log;
  std::vector<std::string> tags;
  for (std::uint64_t i = 0; i < 64; ++i) {
    std::string tag;
    const std::uint64_t len = rng.next_below(12);
    for (std::uint64_t j = 0; j < len; ++j) {
      tag += alphabet[rng.next_below(std::size(alphabet))];
    }
    tags.push_back(tag);
    log.observe(sample_record(i + 1, tag));
  }
  const DeliveryLog back = DeliveryLog::from_csv(log.to_csv());
  ASSERT_EQ(back.size(), tags.size());
  for (std::size_t i = 0; i < tags.size(); ++i) {
    EXPECT_EQ(back.records()[i].tag, tags[i]) << i;
    EXPECT_EQ(back.records()[i].id, alarm::AlarmId{i + 1}) << i;
    EXPECT_EQ(back.records()[i].hold, Duration::millis(2500)) << i;
  }
}

TEST(DeliveryLog, EmptyHardwareRoundTrips) {
  DeliveryLog log;
  alarm::DeliveryRecord r = sample_record(1, "cpu.only");
  r.hardware_used = ComponentSet::none();
  log.observe(r);
  const DeliveryLog back = DeliveryLog::from_csv(log.to_csv());
  EXPECT_TRUE(back.records()[0].hardware_used.empty());
}

TEST(DeliveryLog, RejectsMalformedCsv) {
  EXPECT_THROW(DeliveryLog::from_csv("not,a,header\n1,2,3\n"), std::runtime_error);
  DeliveryLog log;
  log.observe(sample_record(1, "x"));
  std::string csv = log.to_csv();
  // Truncate a row.
  csv = csv.substr(0, csv.rfind(',')) + "\n";
  EXPECT_THROW(DeliveryLog::from_csv(csv), std::runtime_error);
  // Unknown component name.
  std::string bad = log.to_csv();
  const auto pos = bad.find("wifi|cellular");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 4, "warp");
  EXPECT_THROW(DeliveryLog::from_csv(bad), std::runtime_error);
}

TEST(DeliveryLog, SaveLoadFile) {
  DeliveryLog log;
  log.observe(sample_record(1, "x"));
  const std::string path = ::testing::TempDir() + "/simty_delivery_log.csv";
  log.save(path);
  const DeliveryLog back = DeliveryLog::load(path);
  EXPECT_EQ(back.size(), 1u);
  std::remove(path.c_str());
  EXPECT_THROW(DeliveryLog::load("/nonexistent/simty.csv"), std::runtime_error);
}

TEST(DeliveryLog, AppTraceExtractsOneTag) {
  DeliveryLog log;
  log.observe(sample_record(1, "line.sync"));
  log.observe(sample_record(2, "fb.sync"));
  log.observe(sample_record(1, "line.sync"));
  const apps::AppTrace trace = log.app_trace("line.sync");
  EXPECT_EQ(trace.app_name, "line.sync");
  EXPECT_EQ(trace.entries.size(), 2u);
  EXPECT_EQ(trace.entries[0].hold, Duration::millis(2500));
  EXPECT_THROW(log.app_trace("unknown"), std::logic_error);
}

TEST(WorkloadFromLog, RebuildsReplayableWorkload) {
  // Record a run of two repeating apps plus a one-shot, then rebuild.
  test::FrameworkHarness rec;
  rec.init(std::make_unique<alarm::NativePolicy>());
  DeliveryLog log;
  rec.manager_->add_delivery_observer(log.observer());
  apps::ResidentApp line(apps::profile_by_name("Line"), Rng(1));
  apps::ResidentApp fb(apps::profile_by_name("Facebook"), Rng(2));
  line.launch(*rec.manager_, rec.at(0), alarm::AppId{1});
  fb.launch(*rec.manager_, rec.at(0), alarm::AppId{2});
  rec.manager_->register_alarm(
      alarm::AlarmSpec::one_shot("oneoff", alarm::AppId{3}, Duration::seconds(10)),
      rec.at(50), test::FrameworkHarness::noop_task());
  rec.sim_.run_until(rec.at(1200));
  ASSERT_GT(log.size(), 10u);

  apps::Workload replay = trace::workload_from_log(log, apps::WorkloadConfig{});
  // Two repeating apps reconstructed; the one-shot is skipped.
  ASSERT_EQ(replay.apps().size(), 2u);
  for (const auto& app : replay.apps()) {
    const apps::AppProfile& p = app->profile();
    if (p.name == "Line") {
      EXPECT_EQ(p.repeat, Duration::seconds(200));
      EXPECT_NEAR(p.alpha, 0.75, 1e-9);
      EXPECT_EQ(p.mode, alarm::RepeatMode::kDynamic);
    } else {
      EXPECT_EQ(p.name, "Facebook");
      EXPECT_EQ(p.repeat, Duration::seconds(60));
      EXPECT_NEAR(p.alpha, 0.0, 1e-9);
    }
  }

  // Deploy the replay: it runs and re-issues the logged holds in order.
  test::FrameworkHarness run;
  run.init(std::make_unique<alarm::NativePolicy>());
  replay.deploy(run.sim_, *run.manager_);
  run.sim_.run_until(run.at(1200));
  const apps::AppTrace line_trace = log.app_trace("Line.major");
  std::size_t next = 0;
  for (const auto& r : run.deliveries_) {
    if (r.tag != "Line.major") continue;
    ASSERT_LT(next, line_trace.entries.size());
    EXPECT_EQ(r.hold, line_trace.entries[next].hold);
    ++next;
  }
  EXPECT_GT(next, 2u);
}

TEST(WorkloadFromLog, RejectsLogsWithoutRepeatingWakeups) {
  DeliveryLog log;
  alarm::DeliveryRecord r = sample_record(1, "oneoff");
  r.mode = alarm::RepeatMode::kOneShot;
  r.repeat_interval = Duration::zero();
  log.observe(r);
  EXPECT_THROW(trace::workload_from_log(log, apps::WorkloadConfig{}),
               std::logic_error);
}

class DeliveryLogIntegration : public test::FrameworkFixture {};

TEST_F(DeliveryLogIntegration, LogDrivenImitationReproducesHolds) {
  // Full circle of the paper's methodology: run an app, log its
  // deliveries, build an imitated app from the log, and verify the replay
  // issues the same holds.
  init(std::make_unique<alarm::NativePolicy>());
  DeliveryLog log;
  manager_->add_delivery_observer(log.observer());

  apps::AppProfile profile = apps::profile_by_name("FollowMee");
  apps::IrregularApp original(profile, Rng(123));
  original.launch(*manager_, at(0), alarm::AppId{1});
  sim_.run_until(at(1800));  // ten deliveries at ReIn 180
  ASSERT_GE(log.size(), 8u);

  const apps::AppTrace trace = log.app_trace("FollowMee.major");
  apps::ImitatedApp imitation(profile, trace);

  // Fresh framework for the replay run.
  test::FrameworkHarness replay;
  replay.init(std::make_unique<alarm::NativePolicy>());
  imitation.launch(*replay.manager_, replay.at(0), alarm::AppId{1});
  replay.sim_.run_until(replay.at(1800));

  ASSERT_GE(replay.deliveries_.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(replay.deliveries_[i].hold, trace.entries[i].hold) << i;
  }
}

}  // namespace
}  // namespace simty::trace
