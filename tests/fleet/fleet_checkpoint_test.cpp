// Fleet shard checkpointing: a killed fleet run restarted with the same
// config and checkpoint directory must produce aggregates bit-identical to
// an uninterrupted run, at any jobs count. Checkpoint cadence must never
// change a result bit, and a checkpoint from another fleet config (another
// shard partition, seed, policy or cohort field) must be rejected loudly,
// naming the field, instead of silently skewing aggregates.

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "fleet/fleet_runner.hpp"
#include "fleet/report.hpp"
#include "snapshot/snapshot.hpp"
#include "support/result_equality.hpp"
#include "support/section_edit.hpp"

namespace simty::fleet {
namespace {

namespace fs = std::filesystem;

std::vector<CohortSpec> quick_cohorts() {
  CohortSpec phones;
  phones.name = "phones";
  phones.weight = 2.0;
  phones.min_apps = 2;
  phones.max_apps = 4;
  phones.standby = Duration::minutes(3);
  CohortSpec degraded;
  degraded.name = "degraded";
  degraded.weight = 1.0;
  degraded.min_apps = 2;
  degraded.max_apps = 3;
  degraded.degraded_network_fraction = 1.0;
  degraded.standby = Duration::minutes(3);
  return {phones, degraded};
}

FleetConfig quick_fleet(int jobs) {
  FleetConfig fc;
  fc.cohorts = quick_cohorts();
  fc.devices = 48;
  fc.policy = exp::PolicyKind::kSimty;
  fc.seed = 5;
  fc.jobs = jobs;
  fc.shard_devices = 8;
  return fc;
}

/// Fresh checkpoint directory under the test temp root.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "simty_fleet_ckpt_" + name;
  fs::remove_all(dir);
  return dir;
}

/// The full-precision fleet CSV is the strongest single equality check:
/// every Welford double prints at max precision, so byte-equality here is
/// bit-identity of the aggregates. The field walk names what differs.
void expect_identical(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(fleet_csv({a}), fleet_csv({b}));
  ASSERT_EQ(a.cohorts.size(), b.cohorts.size());
  for (std::size_t i = 0; i < a.cohorts.size(); ++i) {
    support::expect_identical(a.cohorts[i], b.cohorts[i]);
  }
  support::expect_identical(a.overall, b.overall);
}

TEST(FleetCheckpoint, CheckpointingNeverChangesResults) {
  const FleetResult plain = run_fleet(quick_fleet(1));
  for (const std::uint64_t every : {1u, 3u, 64u}) {
    SCOPED_TRACE(every);
    FleetConfig fc = quick_fleet(1);
    fc.checkpoint_dir = fresh_dir("cadence_" + std::to_string(every));
    fc.checkpoint_every = every;
    expect_identical(plain, run_fleet(fc));
    fs::remove_all(fc.checkpoint_dir);
  }
}

TEST(FleetCheckpoint, KilledShardResumesBitIdentical) {
  const FleetResult expected = run_fleet(quick_fleet(1));
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE(jobs);
    FleetConfig fc = quick_fleet(jobs);
    fc.checkpoint_dir = fresh_dir("kill_" + std::to_string(jobs));
    fc.checkpoint_every = 2;
    fc.fault_shard = 2;
    fc.fault_after_devices = 5;
    try {
      run_fleet(fc);
      FAIL() << "expected injected fault";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("injected fault"),
                std::string::npos);
    }
    // Restart with the fault cleared: every shard resumes from its last
    // checkpoint (the faulted one mid-shard, finished ones at their end
    // cursor) and the result matches the uninterrupted run byte-for-byte.
    fc.fault_shard = -1;
    expect_identical(expected, run_fleet(fc));
    fs::remove_all(fc.checkpoint_dir);
  }
}

TEST(FleetCheckpoint, FinishedShardLeavesEndCursorCheckpoint) {
  FleetConfig fc = quick_fleet(1);
  fc.checkpoint_dir = fresh_dir("cursor");
  fc.checkpoint_every = 64;  // > shard size: only the final write happens
  run_fleet(fc);
  // 48 devices at weights 2:1 over shard size 8 -> 32 + 16 -> 6 shards:
  // four of the first cohort, then two of the second.
  for (std::uint64_t i = 0; i < 6; ++i) {
    const std::string path =
        fc.checkpoint_dir + "/shard_" + std::to_string(i) + ".ckpt";
    ASSERT_TRUE(fs::exists(path)) << path;
    const snapshot::Reader reader(snapshot::read_file(path));
    snapshot::SectionReader s = reader.section("fleet-shard", 2);
    EXPECT_FALSE(s.bytes().empty());  // the fleet's encoding
    EXPECT_EQ(s.u64(), i);            // shard index
    const std::uint64_t end = 8 * (i < 4 ? i + 1 : i - 3);
    EXPECT_EQ(s.u64(), end);  // cursor parked at the shard end
  }
  fs::remove_all(fc.checkpoint_dir);
}

TEST(FleetCheckpoint, RejectsCheckpointFromDifferentPartition) {
  FleetConfig fc = quick_fleet(1);
  fc.checkpoint_dir = fresh_dir("partition");
  run_fleet(fc);
  // Same directory, different shard slicing: the fingerprint's
  // shard_devices no longer matches, which must fail loudly (a silent resume
  // would fold a foreign aggregate into this partition's merge tree).
  fc.shard_devices = 6;
  EXPECT_THROW(run_fleet(fc), std::logic_error);
  fs::remove_all(fc.checkpoint_dir);
}

TEST(FleetCheckpoint, RejectsCheckpointFromAnotherFleetNamingTheField) {
  // Every FleetConfig field that shapes the aggregates is in the
  // checkpoint's fingerprint: a directory reused under another value of
  // any of them must fail and name it, not fold two fleets into one.
  const auto expect_mismatch = [](const std::string& field, const auto& change) {
    SCOPED_TRACE(field);
    FleetConfig fc = quick_fleet(1);
    fc.checkpoint_dir = fresh_dir("mismatch");
    run_fleet(fc);
    change(fc);
    try {
      run_fleet(fc);
      ADD_FAILURE() << "resumed under another " << field;
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
    fs::remove_all(fc.checkpoint_dir);
  };
  expect_mismatch("field 'seed'", [](FleetConfig& fc) { fc.seed = 6; });
  expect_mismatch("field 'policy'",
                  [](FleetConfig& fc) { fc.policy = exp::PolicyKind::kNative; });
  expect_mismatch("field 'devices'", [](FleetConfig& fc) { fc.devices = 40; });
  expect_mismatch("field 'similarity'", [](FleetConfig& fc) {
    fc.similarity.hw_mode = alarm::HardwareSimilarityMode::kFourLevel;
  });
  expect_mismatch("field 'shard_devices'", [](FleetConfig& fc) { fc.shard_devices = 6; });
  expect_mismatch("field 'rein_jitter'",
                  [](FleetConfig& fc) { fc.cohorts[1].rein_jitter = 0.3; });
  expect_mismatch("field 'standby'",
                  [](FleetConfig& fc) { fc.cohorts[0].standby = Duration::minutes(4); });
  expect_mismatch("field 'cohorts'", [](FleetConfig& fc) { fc.cohorts.pop_back(); });
}

TEST(FleetCheckpoint, RejectsCheckpointWithAnUnreadFieldNamingTheSection) {
  // A checkpoint section carrying a field its reader does not list is
  // another schema, not a resumable shard.
  FleetConfig fc = quick_fleet(1);
  fc.checkpoint_dir = fresh_dir("unread");
  run_fleet(fc);
  const std::string path = fc.checkpoint_dir + "/shard_0.ckpt";
  snapshot::write_file(
      path, support::edit_section(snapshot::read_file(path), "fleet-shard",
                                  [](std::string& p) { p += support::u64_field(7); }));
  try {
    run_fleet(fc);
    ADD_FAILURE() << "resumed a checkpoint with an unread field";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("section 'fleet-shard'"), std::string::npos)
        << e.what();
  }
  fs::remove_all(fc.checkpoint_dir);
}

TEST(FleetCheckpoint, DefaultCohortsMatchTheirExplicitSpelling) {
  // The fingerprint covers the resolved cohorts: a run with the default
  // (empty) cohorts resumes under default_cohorts() spelled out.
  FleetConfig fc = quick_fleet(1);
  fc.cohorts.clear();
  fc.devices = 12;
  fc.checkpoint_dir = fresh_dir("defaults");
  const FleetResult first = run_fleet(fc);
  fc.cohorts = default_cohorts();
  expect_identical(first, run_fleet(fc));
  fs::remove_all(fc.checkpoint_dir);
}

}  // namespace
}  // namespace simty::fleet
