// Snapshot byte identity: the FNV-1a digest of Run::save_snapshot() for a
// fixed set of runs, pinned to the values the container produced before its
// per-component codecs were generated from field lists. A refactor of the
// save/restore code must leave every snapshot byte unchanged, so these
// digests are never regenerated: a mismatch means the wire format moved.

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
      {PolicyKind::kNative, 0xa43435305e4e2993ull, 0x979f7ab9674ca1a9ull},
      {PolicyKind::kSimty, 0xbbb6209ddec3df34ull, 0x0b2b4f7c683c6203ull},
      {PolicyKind::kExact, 0xcb8d357e566a373eull, 0x6265173eb6f23b18ull},
      {PolicyKind::kSimtyDuration, 0x2a251bdabd4fd936ull, 0xb58f9d8f81b890ffull},
      {PolicyKind::kFixedInterval, 0xdd5c1d42cc629d46ull, 0x8af52aa2f3de3938ull},
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
  EXPECT_EQ(snapshot_digest(drx), 0x1ab6dc4b75781de5ull);
  ExperimentConfig wur = drx;
  wur.drx->wur = true;
  EXPECT_EQ(snapshot_digest(wur), 0xec446c6515649378ull);
}

TEST(SnapshotDigest, DeliveryLogCapture) {
  ExperimentConfig config = two_hour_config(PolicyKind::kSimty, WorkloadKind::kLight);
  config.capture_delivery_log = true;
  EXPECT_EQ(snapshot_digest(config), 0xaefb23d4a598c6ccull);
}

#if !defined(SIMTY_TRACE_DISABLED)
TEST(SnapshotDigest, Tracer) {
  trace::Tracer tracer;
  ExperimentConfig config = two_hour_config(PolicyKind::kSimty, WorkloadKind::kHeavy);
  config.tracer = &tracer;
  EXPECT_EQ(snapshot_digest(config), 0xdd3037e116c24eacull);
}
#endif

}  // namespace
}  // namespace simty::exp
