// Snapshot byte identity: the FNV-1a digest of Run::save_snapshot() for a
// fixed set of runs. A refactor of the save/restore code must leave every
// snapshot byte unchanged, so a mismatch means the wire format moved. The
// digests are re-recorded only together with a deliberate section-version
// bump (kSectionVersion in exp/run.cpp), in a commit of their own; they
// were last recorded at version 4.

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
      {PolicyKind::kNative, 0x4f901dfc08106af3ull, 0x42e3bea0df860a8full},
      {PolicyKind::kSimty, 0x9c164007f301f50eull, 0xa6268b29a4dd13d7ull},
      {PolicyKind::kExact, 0xf2a034aff8af463eull, 0xb13b786ad5bae828ull},
      {PolicyKind::kSimtyDuration, 0xe2183f0018c7bcdcull, 0xf4a05fdc794ac719ull},
      {PolicyKind::kFixedInterval, 0xc71167dca0dc3d99ull, 0x43d84d6ddb43c899ull},
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
  EXPECT_EQ(snapshot_digest(drx), 0xbc3202ba181bce47ull);
  ExperimentConfig wur = drx;
  wur.drx->wur = true;
  EXPECT_EQ(snapshot_digest(wur), 0x651376e0f44d54f2ull);
}

TEST(SnapshotDigest, DeliveryLogCapture) {
  ExperimentConfig config = two_hour_config(PolicyKind::kSimty, WorkloadKind::kLight);
  config.capture_delivery_log = true;
  EXPECT_EQ(snapshot_digest(config), 0x18d7e158e79284a7ull);
}

#if !defined(SIMTY_TRACE_DISABLED)
TEST(SnapshotDigest, Tracer) {
  trace::Tracer tracer;
  ExperimentConfig config = two_hour_config(PolicyKind::kSimty, WorkloadKind::kHeavy);
  config.tracer = &tracer;
  EXPECT_EQ(snapshot_digest(config), 0xef3ca2abbaa1dd65ull);
}
#endif

}  // namespace
}  // namespace simty::exp
