// Fleet shard checkpointing: a killed fleet run restarted with the same
// config and checkpoint directory must produce aggregates bit-identical to
// an uninterrupted run, at any jobs count. Checkpoint cadence must never
// change a result bit, and a checkpoint from a different shard partition
// must be rejected loudly instead of silently skewing aggregates.

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "fleet/fleet_runner.hpp"
#include "fleet/report.hpp"
#include "snapshot/snapshot.hpp"
#include "support/result_equality.hpp"

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
  // 48 devices at weights 2:1 over shard size 8 -> 32 + 16 -> 6 shards.
  for (int i = 0; i < 6; ++i) {
    const std::string path =
        fc.checkpoint_dir + "/shard_" + std::to_string(i) + ".ckpt";
    ASSERT_TRUE(fs::exists(path)) << path;
    const snapshot::Reader reader(snapshot::read_file(path));
    snapshot::SectionReader s = reader.section("fleet-shard", 1);
    EXPECT_EQ(s.u64(), static_cast<std::uint64_t>(i));  // shard index
    s.str();                                            // cohort name
    const std::uint64_t begin = s.u64();
    const std::uint64_t end = s.u64();
    EXPECT_EQ(s.u64(), end);  // cursor parked at the shard end
    EXPECT_EQ(end - begin, 8u);
  }
  fs::remove_all(fc.checkpoint_dir);
}

TEST(FleetCheckpoint, RejectsCheckpointFromDifferentPartition) {
  FleetConfig fc = quick_fleet(1);
  fc.checkpoint_dir = fresh_dir("partition");
  run_fleet(fc);
  // Same directory, different shard slicing: the begin/end identity fields
  // no longer match, which must fail loudly (a silent resume would fold a
  // foreign aggregate into this partition's merge tree).
  fc.shard_devices = 6;
  EXPECT_THROW(run_fleet(fc), std::logic_error);
  fs::remove_all(fc.checkpoint_dir);
}

}  // namespace
}  // namespace simty::fleet
