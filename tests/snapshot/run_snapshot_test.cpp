// Checkpoint/resume bit-identity: a run saved at a quiescent instant and
// resumed in a fresh Run must finish byte-identical to a straight run — the
// delivery CSV, the binary trace, and every result field. This is the
// contract the warm-start sweep server is built on, so it is tested across
// all four policies on the light and heavy workloads, with doze on, and with
// a checkpoint inside a same-instant batch neighborhood.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "common/arena.hpp"
#include "exp/run.hpp"
#include "snapshot/snapshot.hpp"
#include "support/result_equality.hpp"
#include "trace/tracer.hpp"

namespace simty::exp {
namespace {

ExperimentConfig base_config(PolicyKind policy) {
  ExperimentConfig config;
  config.policy = policy;
  config.workload = WorkloadKind::kLight;
  config.duration = Duration::hours(2);
  config.seed = 7;
  config.capture_delivery_log = true;
  return config;
}

using support::expect_identical;

class RunSnapshotPolicyTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(RunSnapshotPolicyTest, CheckpointResumeMatchesStraightRun) {
  // Heavy adds the five imitated apps, whose replay cursors must resume
  // into apps that have recorded none of their trace yet.
  for (const WorkloadKind workload : {WorkloadKind::kLight, WorkloadKind::kHeavy}) {
    SCOPED_TRACE(to_string(workload));
    ExperimentConfig config = base_config(GetParam());
    config.workload = workload;

    exp::Run straight(config);
    const RunResult expected = straight.finish();
    const std::string expected_csv = straight.delivery_log().to_csv();

    exp::Run first(config);
    first.advance_to_quiescent(TimePoint::origin() + Duration::hours(1));
    const std::string snap = first.save_snapshot();

    exp::Run resumed(config);
    resumed.restore_snapshot(snap);
    const RunResult actual = resumed.finish();

    expect_identical(expected, actual);
    EXPECT_EQ(expected_csv, resumed.delivery_log().to_csv());
  }
}

TEST_P(RunSnapshotPolicyTest, SnapshotIsDeterministic) {
  const ExperimentConfig config = base_config(GetParam());
  const TimePoint checkpoint = TimePoint::origin() + Duration::minutes(45);

  exp::Run a(config);
  a.advance_to_quiescent(checkpoint);
  exp::Run b(config);
  b.advance_to_quiescent(checkpoint);
  EXPECT_EQ(a.save_snapshot(), b.save_snapshot());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, RunSnapshotPolicyTest,
                         ::testing::Values(PolicyKind::kNative, PolicyKind::kSimty,
                                           PolicyKind::kExact,
                                           PolicyKind::kSimtyDuration),
                         [](const auto& param_info) {
                           // gtest names must be alnum: SIMTY-DUR -> SIMTY_DUR.
                           std::string name = to_string(param_info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(RunSnapshotTest, BinaryTraceSurvivesCheckpoint) {
  ExperimentConfig config = base_config(PolicyKind::kSimty);
  trace::Tracer straight_tracer;
  config.tracer = &straight_tracer;
  {
    exp::Run straight(config);
    straight.finish();
  }

  trace::Tracer prefix_tracer;
  config.tracer = &prefix_tracer;
  std::string snap;
  {
    exp::Run first(config);
    first.advance_to_quiescent(TimePoint::origin() + Duration::hours(1));
    snap = first.save_snapshot();
  }

  trace::Tracer resumed_tracer;
  config.tracer = &resumed_tracer;
  {
    exp::Run resumed(config);
    resumed.restore_snapshot(snap);
    resumed.finish();
  }
  EXPECT_EQ(straight_tracer.binary(), resumed_tracer.binary());
}

TEST(RunSnapshotTest, ArenaBackedRunMatchesHeapRunByteForByte) {
  // The sweep server backs its runs with one arena, reset per run: the
  // snapshot, the resumed trace, the delivery log and every result must
  // equal the heap-backed run's, on a cold arena and on a warmed one.
  struct Outputs {
    std::string snapshot, trace, csv;
    RunResult result;
  };
  const auto run = [](common::Arena* arena) {
    ExperimentConfig config = base_config(PolicyKind::kSimty);
    config.workload = WorkloadKind::kHeavy;
    config.arena_opts.arena = arena;
    trace::Tracer prefix_tracer;
    config.tracer = &prefix_tracer;
    Outputs out;
    {
      exp::Run first(config);
      first.advance_to_quiescent(TimePoint::origin() + Duration::hours(1));
      out.snapshot = first.save_snapshot();
    }
    if (arena != nullptr) arena->reset();
    trace::Tracer resumed_tracer;
    config.tracer = &resumed_tracer;
    exp::Run resumed(config);
    resumed.restore_snapshot(out.snapshot);
    out.result = resumed.finish();
    out.csv = resumed.delivery_log().to_csv();
    out.trace = resumed_tracer.binary();
    return out;
  };
  const Outputs heap = run(nullptr);
  common::Arena arena;
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass);
    arena.reset();
    const Outputs backed = run(&arena);
    EXPECT_EQ(heap.snapshot, backed.snapshot);
    EXPECT_EQ(heap.trace, backed.trace);
    EXPECT_EQ(heap.csv, backed.csv);
    expect_identical(heap.result, backed.result);
  }
}

TEST(RunSnapshotTest, CheckpointResumeWithDozeMatches) {
  ExperimentConfig config = base_config(PolicyKind::kSimty);
  config.doze = true;

  exp::Run straight(config);
  const RunResult expected = straight.finish();

  exp::Run first(config);
  first.advance_to_quiescent(TimePoint::origin() + Duration::minutes(70));
  const std::string snap = first.save_snapshot();
  exp::Run resumed(config);
  resumed.restore_snapshot(snap);
  expect_identical(expected, resumed.finish());
}

TEST(RunSnapshotTest, CheckpointInsideBatchNeighborhoodMatches) {
  // Checkpoint at an instant chosen per-delivery: right after a batch of
  // size >= 2 delivered (a same-instant event group just drained).
  // advance_to_quiescent steps past the in-flight wake session, so the
  // snapshot lands between two batch groups, never inside one — this test
  // pins that the surrounding machinery (wakelock tails, device
  // sleep-back) restores exactly.
  TimePoint batch_instant;
  {
    exp::Run probe_run(base_config(PolicyKind::kSimty));
    probe_run.alarm_manager().add_delivery_observer([&](const alarm::DeliveryRecord& r) {
      if (batch_instant == TimePoint() && r.batch_size >= 2 &&
          r.delivered > TimePoint::origin() + Duration::minutes(30)) {
        batch_instant = r.delivered;
      }
    });
    probe_run.finish();
  }
  ASSERT_NE(batch_instant, TimePoint()) << "workload produced no batched delivery";

  const ExperimentConfig config = base_config(PolicyKind::kSimty);
  exp::Run straight(config);
  const RunResult expected = straight.finish();

  exp::Run first(config);
  first.advance_to_quiescent(batch_instant);
  const std::string snap = first.save_snapshot();
  exp::Run resumed(config);
  resumed.restore_snapshot(snap);
  const RunResult actual = resumed.finish();
  expect_identical(expected, actual);
  EXPECT_EQ(straight.delivery_log().to_csv(), resumed.delivery_log().to_csv());
}

TEST(RunSnapshotTest, BetaSwitchPrefixIsSharedAcrossSweepPoints) {
  // The warm-start lever: configs differing only in beta_switch.beta
  // produce byte-identical snapshots before the switch instant, and a
  // prefix saved under one β resumes correctly under another.
  ExperimentConfig lo = base_config(PolicyKind::kSimty);
  lo.beta_switch = ExperimentConfig::BetaSwitch{Duration::hours(1), 0.3};
  ExperimentConfig hi = lo;
  hi.beta_switch->beta = 0.9;

  const TimePoint checkpoint = TimePoint::origin() + Duration::minutes(50);
  exp::Run run_lo(lo);
  run_lo.advance_to_quiescent(checkpoint);
  const std::string snap = run_lo.save_snapshot();
  {
    exp::Run run_hi(hi);
    run_hi.advance_to_quiescent(checkpoint);
    EXPECT_EQ(snap, run_hi.save_snapshot()) << "prefix depends on beta";
  }

  // Straight run under hi's β vs warm start from lo's prefix snapshot.
  exp::Run straight(hi);
  const RunResult expected = straight.finish();
  exp::Run warm(hi);
  warm.restore_snapshot(snap);
  const RunResult actual = warm.finish();
  expect_identical(expected, actual);
  EXPECT_EQ(straight.delivery_log().to_csv(), warm.delivery_log().to_csv());
}

TEST(RunSnapshotTest, CheckpointResumeWithDrxMatches) {
  // The paging occasion grid runs every 1.28 s, so an hour-mark checkpoint
  // lands between DRX cycles with pending occasion/arrival events and
  // (possibly) queued pages — all of which must survive the trip.
  ExperimentConfig config = base_config(PolicyKind::kSimty);
  config.drx.emplace();

  exp::Run straight(config);
  const RunResult expected = straight.finish();
  EXPECT_GT(expected.pages_answered, 0.0);
  EXPECT_GT(expected.drx_listen_seconds, 0.0);

  exp::Run first(config);
  first.advance_to_quiescent(TimePoint::origin() + Duration::hours(1));
  const std::string snap = first.save_snapshot();
  exp::Run resumed(config);
  resumed.restore_snapshot(snap);
  expect_identical(expected, resumed.finish());
}

TEST(RunSnapshotTest, CheckpointResumeWithWurMatches) {
  // WuR mode: the receiver's listen rail and any armed batched-answer
  // event serialize with the run.
  ExperimentConfig config = base_config(PolicyKind::kSimty);
  config.drx.emplace();
  config.drx->wur = true;
  config.drx->wur_delay_budget = Duration::seconds(10);

  exp::Run straight(config);
  const RunResult expected = straight.finish();
  EXPECT_GT(expected.pages_answered, 0.0);
  EXPECT_GT(expected.wur_triggers, 0.0);
  EXPECT_GT(expected.wur_listen_seconds, 0.0);
  EXPECT_EQ(expected.drx_listen_seconds, 0.0);

  exp::Run first(config);
  first.advance_to_quiescent(TimePoint::origin() + Duration::minutes(70));
  const std::string snap = first.save_snapshot();
  exp::Run resumed(config);
  resumed.restore_snapshot(snap);
  expect_identical(expected, resumed.finish());
}

TEST(RunSnapshotTest, SnapshotWithDrxIsDeterministic) {
  ExperimentConfig config = base_config(PolicyKind::kSimty);
  config.drx.emplace();
  config.drx->wur = true;
  const TimePoint checkpoint = TimePoint::origin() + Duration::minutes(45);

  exp::Run a(config);
  a.advance_to_quiescent(checkpoint);
  exp::Run b(config);
  b.advance_to_quiescent(checkpoint);
  EXPECT_EQ(a.save_snapshot(), b.save_snapshot());
}

TEST(RunSnapshotTest, RestoreRejectsPagingConfigMismatch) {
  // A snapshot taken with the paging scenario enabled carries cellular (and
  // wur) sections; restoring it into a run configured without them — or
  // vice versa — is a config mismatch, not silent divergence.
  ExperimentConfig with_drx = base_config(PolicyKind::kSimty);
  with_drx.drx.emplace();
  exp::Run drx_run(with_drx);
  drx_run.advance_to_quiescent(TimePoint::origin() + Duration::minutes(30));
  const std::string drx_snap = drx_run.save_snapshot();

  const ExperimentConfig plain = base_config(PolicyKind::kSimty);
  exp::Run plain_run(plain);
  plain_run.advance_to_quiescent(TimePoint::origin() + Duration::minutes(30));
  const std::string plain_snap = plain_run.save_snapshot();

  exp::Run into_plain(plain);
  EXPECT_THROW(into_plain.restore_snapshot(drx_snap), std::logic_error);
  exp::Run into_drx(with_drx);
  EXPECT_THROW(into_drx.restore_snapshot(plain_snap), std::logic_error);

  ExperimentConfig with_wur = with_drx;
  with_wur.drx->wur = true;
  exp::Run into_wur(with_wur);
  EXPECT_THROW(into_wur.restore_snapshot(drx_snap), std::logic_error);
}

// Restoring `snap` into a Run of `config` throws naming `field`.
void expect_fingerprint_mismatch(const std::string& snap, const ExperimentConfig& config,
                                 const std::string& field) {
  exp::Run run(config);
  try {
    run.restore_snapshot(snap);
    ADD_FAILURE() << "restored under a different " << field;
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("field '" + field + "'"), std::string::npos)
        << e.what();
  }
}

std::string snapshot_at_30min(const ExperimentConfig& config) {
  exp::Run run(config);
  run.advance_to_quiescent(TimePoint::origin() + Duration::minutes(30));
  return run.save_snapshot();
}

/// `snap` with section `name`'s version field set to `version`; returns the
/// version it had through `was`. Walks the container layout documented in
/// snapshot/snapshot.hpp (all integers little-endian).
std::string with_section_version(std::string snap, std::string_view name,
                                 std::uint32_t version, std::uint32_t* was) {
  const auto le = [&snap](std::size_t at, std::size_t width) {
    std::uint64_t v = 0;
    for (std::size_t i = width; i-- > 0;) {
      v = (v << 8) | static_cast<unsigned char>(snap[at + i]);
    }
    return v;
  };
  std::size_t pos = 8 + 4;  // magic, format version
  const std::uint64_t sections = le(pos, 4);
  pos += 4;
  for (std::uint64_t i = 0; i < sections; ++i) {
    const std::size_t name_len = le(pos, 4);
    const std::string_view section(snap.data() + pos + 4, name_len);
    pos += 4 + name_len;
    if (section == name) {
      *was = static_cast<std::uint32_t>(le(pos, 4));
      for (std::size_t b = 0; b < 4; ++b) {
        snap[pos + b] = static_cast<char>((version >> (8 * b)) & 0xffu);
      }
      return snap;
    }
    pos += 4;
    pos += 8 + le(pos, 8);
  }
  ADD_FAILURE() << "no section '" << name << "'";
  return snap;
}

TEST(RunSnapshotTest, SectionVersionSkewNamesTheSectionAndBothVersions) {
  // A section from a build with another field list (here: version 4, which
  // still carried the tracer's drop count and the wakelocks' constant
  // slots) is rejected with the cause alone: the section and both versions,
  // no check expression or source location. The run section is read
  // first, so it is the one a whole snapshot from that build names.
  const ExperimentConfig config = base_config(PolicyKind::kNative);
  const std::string good = snapshot_at_30min(config);
  for (const char* section : {"run", "sim"}) {
    SCOPED_TRACE(section);
    std::uint32_t current = 0;
    const std::string snap = with_section_version(good, section, 4, &current);
    ASSERT_NE(current, 4u);
    exp::Run run(config);
    try {
      run.restore_snapshot(snap);
      ADD_FAILURE() << "restored a section of another version";
    } catch (const std::logic_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "snapshot: section '" + std::string(section) +
                    "' has version 4, this build reads " + std::to_string(current));
    }
  }
}

TEST(RunSnapshotTest, MissingSectionIsRejectedNamingIt) {
  // A snapshot saved without a tracer cannot resume a traced run.
  ExperimentConfig config = base_config(PolicyKind::kSimty);
  const std::string untraced = snapshot_at_30min(config);
  trace::Tracer tracer;
  config.tracer = &tracer;
  exp::Run run(config);
  try {
    run.restore_snapshot(untraced);
    ADD_FAILURE() << "restored a traced run from an untraced snapshot";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(std::string(e.what()), "snapshot: missing required section 'tracer'");
  }
}

#if !defined(SIMTY_TRACE_DISABLED)
TEST(RunSnapshotTest, TraceFileCarriesTheSnapshotTracerSection) {
  // Tracer::binary() and Run::save_snapshot() write the same tracer section
  // payload: one format, one codec.
  trace::Tracer tracer;
  ExperimentConfig config = base_config(PolicyKind::kSimty);
  config.tracer = &tracer;
  exp::Run run(config);
  run.advance_to_quiescent(TimePoint::origin() + Duration::minutes(30));
  const snapshot::Reader snap(run.save_snapshot());
  const snapshot::Reader trace_file(tracer.binary());
  ASSERT_EQ(trace_file.section_count(), 1u);
  EXPECT_EQ(trace_file.section_name(0), "tracer");
  std::string_view in_snapshot;
  for (std::size_t i = 0; i < snap.section_count(); ++i) {
    if (snap.section_name(i) == "tracer") in_snapshot = snap.section_at(i).payload();
  }
  EXPECT_GT(tracer.size(), 0u);
  EXPECT_EQ(trace_file.section_at(0).payload(), in_snapshot);
}
#endif

TEST(RunSnapshotTest, RestoreRejectsHorizonMismatch) {
  const ExperimentConfig config = base_config(PolicyKind::kNative);
  ExperimentConfig longer = config;
  longer.duration = Duration::hours(3);
  expect_fingerprint_mismatch(snapshot_at_30min(config), longer, "duration");
}

TEST(RunSnapshotTest, RestoreRejectsAnotherConfigNamingTheField) {
  // The snapshot's config fingerprint is compared before any component
  // restores: a run resumed under another seed, policy, power model or
  // paging scenario would mix state from two experiments.
  ExperimentConfig saved = base_config(PolicyKind::kSimty);
  saved.seed = 99;
  const std::string snap = snapshot_at_30min(saved);

  ExperimentConfig other = saved;
  other.seed = 1;
  expect_fingerprint_mismatch(snap, other, "seed");
  other = saved;
  other.policy = PolicyKind::kNative;
  expect_fingerprint_mismatch(snap, other, "policy");
  other = saved;
  other.power_model.component(hw::Component::kWifi).active += Power::milliwatts(1.0);
  expect_fingerprint_mismatch(snap, other, "power_model");
  other = saved;
  other.drx.emplace();
  expect_fingerprint_mismatch(snap, other, "drx");

  ExperimentConfig with_drx = saved;
  with_drx.drx.emplace();
  expect_fingerprint_mismatch(snapshot_at_30min(with_drx), saved, "drx");
}

TEST(RunSnapshotTest, RestoreIgnoresOnlyTheSwitchBeta) {
  // β alone is outside the fingerprint: a prefix saved under one switch β
  // resumes under another, bit-identical to a straight run of that β
  // (BetaSwitchPrefixIsSharedAcrossSweepPoints checks the full outputs).
  ExperimentConfig lo = base_config(PolicyKind::kSimty);
  lo.beta_switch = ExperimentConfig::BetaSwitch{Duration::hours(1), 0.3};
  ExperimentConfig hi = lo;
  hi.beta_switch->beta = 0.9;
  const std::string snap = snapshot_at_30min(lo);
  exp::Run straight(hi);
  exp::Run warm(hi);
  warm.restore_snapshot(snap);
  expect_identical(straight.finish(), warm.finish());
  // The switch instant, unlike its β, is part of the fingerprint.
  ExperimentConfig later = lo;
  later.beta_switch->at = Duration::minutes(61);
  expect_fingerprint_mismatch(snap, later, "beta_switch");
}

TEST(RunSnapshotTest, SaveRequiresQuiescence) {
  const ExperimentConfig config = base_config(PolicyKind::kNative);
  exp::Run run(config);
  // Unadvanced run: the launch schedule is pending but the device starts
  // asleep and quiescent, so save succeeds at t=0...
  EXPECT_NO_THROW(run.save_snapshot());
}

}  // namespace
}  // namespace simty::exp
