// Restore-side schema checks over real run snapshots: a section is read to
// its end, so fields its component does not list are rejected; a field of
// the wrong type is rejected naming its section and field; and a sweep of
// random corruptions of real snapshot bytes ends every restore cleanly or
// in std::logic_error (the sanitizer CI job runs this sweep too, which is
// what turns "never UB" into a checked property).

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "exp/run.hpp"
#include "snapshot/snapshot.hpp"
#include "support/corrupt.hpp"
#include "support/section_edit.hpp"
#include "trace/tracer.hpp"

namespace simty::exp {
namespace {

ExperimentConfig hour_config() {
  ExperimentConfig config;
  config.policy = PolicyKind::kSimty;
  config.workload = WorkloadKind::kLight;
  config.duration = Duration::hours(1);
  config.seed = 3;
  return config;
}

std::string snapshot_at_30min(const ExperimentConfig& config) {
  exp::Run run(config);
  run.advance_to_quiescent(TimePoint::origin() + Duration::minutes(30));
  return run.save_snapshot();
}

/// The message restoring `snap` into a fresh Run of `config` throws.
std::string restore_error(const ExperimentConfig& config, const std::string& snap) {
  exp::Run run(config);
  try {
    run.restore_snapshot(snap);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "restored";
  return "";
}

bool contains(const std::string& text, const std::string& part) {
  return text.find(part) != std::string::npos;
}

TEST(RestoreChecks, UnreadFieldInAnySectionIsRejectedNamingIt) {
  // Every optional section present: paging with WuR, a tracer and a log.
  trace::Tracer tracer;
  ExperimentConfig config = hour_config();
  config.drx.emplace();
  config.drx->wur = true;
  config.tracer = &tracer;
  config.capture_delivery_log = true;
  const std::string snap = snapshot_at_30min(config);
  const snapshot::Reader reader(snap);
  ASSERT_EQ(reader.section_count(), 15u);
  for (std::size_t i = 0; i < reader.section_count(); ++i) {
    const std::string section(reader.section_name(i));
    SCOPED_TRACE(section);
    const std::string padded = support::edit_section(
        snap, section, [](std::string& p) { p += support::u64_field(7); });
    const std::string error = restore_error(config, padded);
    EXPECT_TRUE(contains(error, "section '" + section + "'")) << error;
  }
}

TEST(RestoreChecks, TypeSkewedFieldIsRejectedNamingSectionAndField) {
  const ExperimentConfig config = hour_config();
  const std::string snap = snapshot_at_30min(config);
  const auto retag = [&](const char* section, std::size_t at, snapshot::FieldType type) {
    return support::edit_section(
        snap, section, [&](std::string& p) { p[at] = static_cast<char>(type); });
  };
  // device: state is a tagged u8 (two bytes); state_since (i64) follows.
  std::string error =
      restore_error(config, retag("device", 2, snapshot::FieldType::kU64));
  EXPECT_TRUE(contains(error, "section 'device' field 'state_since'")) << error;
  // accountant: its first field is the nested breakdown's sleep energy.
  error = restore_error(config, retag("accountant", 0, snapshot::FieldType::kU64));
  EXPECT_TRUE(contains(error, "section 'accountant' field 'breakdown.sleep'")) << error;
}

TEST(RestoreChecks, RandomizedCorruptionOfRealSnapshotsNeverEscapesTheChecks) {
  struct Case {
    const char* name;
    ExperimentConfig config;
  };
  ExperimentConfig wur = hour_config();
  wur.drx.emplace();
  wur.drx->wur = true;
  ExperimentConfig traced = hour_config();
  traced.workload = WorkloadKind::kHeavy;
  ExperimentConfig logged = hour_config();
  logged.capture_delivery_log = true;
  const Case cases[] = {
      {"light", hour_config()},
      {"wur", wur},
      {"tracer", traced},
      {"delivery-log", logged}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const bool with_tracer = std::string(c.name) == "tracer";
    trace::Tracer saved_tracer;
    ExperimentConfig config = c.config;
    if (with_tracer) config.tracer = &saved_tracer;
    const std::string good = snapshot_at_30min(config);
    Rng rng(0x5eed, 21);
    int rejected = 0, restored = 0;
    for (int round = 0; round < 1000; ++round) {
      const std::string bytes = support::corrupt(good, rng);
      trace::Tracer tracer;
      if (with_tracer) config.tracer = &tracer;
      exp::Run run(config);
      try {
        run.restore_snapshot(bytes);
        ++restored;
      } catch (const std::logic_error&) {
        ++rejected;
      }
    }
    // Both outcomes occur, or the corruptions are too tame or too wild.
    EXPECT_GT(rejected, 200);
    EXPECT_GT(restored, 20);
  }
}

}  // namespace
}  // namespace simty::exp
