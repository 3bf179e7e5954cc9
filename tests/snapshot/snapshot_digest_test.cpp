// Snapshot byte identity: the FNV-1a digest of Run::save_snapshot() for a
// fixed set of runs. A refactor of the save/restore code must leave every
// snapshot byte unchanged, so a mismatch means the wire format moved. The
// digests are re-recorded only together with a deliberate section-version
// bump (kSectionVersion in exp/run.cpp), in a commit of their own; they
// were last recorded at version 5.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/hash.hpp"
#include "exp/run.hpp"
#include "trace/tracer.hpp"

namespace simty::exp {
namespace {

ExperimentConfig two_hour_config(PolicyKind policy, WorkloadKind workload) {
  ExperimentConfig config;
  config.policy = policy;
  config.workload = workload;
  config.duration = Duration::minutes(120);
  return config;
}

/// Digest of the snapshot taken at the first quiescent instant after 60 min.
std::uint64_t snapshot_digest(const ExperimentConfig& config) {
  Run run(config);
  run.advance_to_quiescent(TimePoint::origin() + Duration::minutes(60));
  return common::fnv1a64(run.save_snapshot());
}

struct PolicyDigests {
  PolicyKind policy;
  std::uint64_t light;
  std::uint64_t heavy;
};

TEST(SnapshotDigest, EveryPolicyLightAndHeavy) {
  const PolicyDigests cases[] = {
      {PolicyKind::kNative, 0x78a70b8bf5afb87cull, 0x2156f22e78408c6cull},
      {PolicyKind::kSimty, 0x903181986acdd1e1ull, 0xc0158cc233244db6ull},
      {PolicyKind::kExact, 0xe22c000e1a1d51dbull, 0x5e08e29245c88d93ull},
      {PolicyKind::kSimtyDuration, 0x4b6280bb82de0823ull, 0xaeff7c6d17c97556ull},
      {PolicyKind::kFixedInterval, 0x4f03bf32e7302c12ull, 0x28c829ef4653430cull},
  };
  for (const PolicyDigests& c : cases) {
    SCOPED_TRACE(to_string(c.policy));
    EXPECT_EQ(snapshot_digest(two_hour_config(c.policy, WorkloadKind::kLight)), c.light);
    EXPECT_EQ(snapshot_digest(two_hour_config(c.policy, WorkloadKind::kHeavy)), c.heavy);
  }
}

TEST(SnapshotDigest, DrxAndWurPaging) {
  ExperimentConfig drx = two_hour_config(PolicyKind::kSimty, WorkloadKind::kLight);
  drx.drx.emplace();
  EXPECT_EQ(snapshot_digest(drx), 0x5151b9f6faba3303ull);
  ExperimentConfig wur = drx;
  wur.drx->wur = true;
  EXPECT_EQ(snapshot_digest(wur), 0xcb06b287b9813a1full);
}

TEST(SnapshotDigest, DeliveryLogCapture) {
  ExperimentConfig config = two_hour_config(PolicyKind::kSimty, WorkloadKind::kLight);
  config.capture_delivery_log = true;
  EXPECT_EQ(snapshot_digest(config), 0x792b5f864499a04bull);
}

#if !defined(SIMTY_TRACE_DISABLED)
TEST(SnapshotDigest, Tracer) {
  trace::Tracer tracer;
  ExperimentConfig config = two_hour_config(PolicyKind::kSimty, WorkloadKind::kHeavy);
  config.tracer = &tracer;
  EXPECT_EQ(snapshot_digest(config), 0xa6b62195c85ddd1bull);
}
#endif

}  // namespace
}  // namespace simty::exp
