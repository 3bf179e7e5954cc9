// Fleet determinism conformance: serial and parallel fleet runs must
// produce bit-identical aggregates for every policy; a small golden fleet
// is pinned field-by-field against a device-by-device recomputation
// through the public API; shard exceptions propagate deterministically.

#include "fleet/fleet_runner.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "fleet/report.hpp"
#include "support/result_equality.hpp"
#include "trace/tracer.hpp"

namespace simty::fleet {
namespace {

// Two cheap cohorts: short standby, few apps, no system alarms.
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

FleetConfig quick_fleet(exp::PolicyKind policy, int jobs) {
  FleetConfig fc;
  fc.cohorts = quick_cohorts();
  fc.devices = 48;
  fc.policy = policy;
  fc.seed = 5;
  fc.jobs = jobs;
  fc.shard_devices = 8;
  return fc;
}

using support::expect_identical;

void expect_identical(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.devices, b.devices);
  ASSERT_EQ(a.cohorts.size(), b.cohorts.size());
  for (std::size_t i = 0; i < a.cohorts.size(); ++i) {
    SCOPED_TRACE(a.cohorts[i].cohort);
    expect_identical(a.cohorts[i], b.cohorts[i]);
  }
  expect_identical(a.overall, b.overall);
}

TEST(FleetRunner, SerialAndParallelAreBitIdenticalForEveryPolicy) {
  for (const exp::PolicyKind policy :
       {exp::PolicyKind::kNative, exp::PolicyKind::kSimty,
        exp::PolicyKind::kExact, exp::PolicyKind::kSimtyDuration}) {
    SCOPED_TRACE(exp::to_string(policy));
    const FleetResult serial = run_fleet(quick_fleet(policy, 1));
    const FleetResult parallel = run_fleet(quick_fleet(policy, 4));
    expect_identical(serial, parallel);
    // The full-precision CSV is the artifact the CI gate compares; it must
    // be byte-identical too.
    EXPECT_EQ(fleet_csv({serial}), fleet_csv({parallel}));
  }
}

TEST(FleetRunner, AggregatesAreIndependentOfJobsGranularity) {
  const FleetResult two = run_fleet(quick_fleet(exp::PolicyKind::kSimty, 2));
  const FleetResult eight = run_fleet(quick_fleet(exp::PolicyKind::kSimty, 8));
  expect_identical(two, eight);
}

TEST(FleetRunner, GoldenSmallFleetMatchesDeviceByDeviceRecomputation) {
  // Recompute the fleet result through the public API: sample each device,
  // run it, aggregate shard-by-shard with the same partition and merge
  // tree. Every field must match the runner bit-for-bit.
  const FleetConfig fc = quick_fleet(exp::PolicyKind::kSimty, 3);
  const FleetResult fleet = run_fleet(fc);

  const std::vector<std::uint64_t> counts =
      apportion_devices(fc.devices, fc.cohorts);
  // Structural golden pins: 48 devices at weights 2:1 over shard size 8.
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 32u);
  EXPECT_EQ(counts[1], 16u);
  ASSERT_EQ(fleet.cohorts.size(), 2u);
  EXPECT_EQ(fleet.cohorts[0].cohort, "phones");
  EXPECT_EQ(fleet.cohorts[1].cohort, "degraded");
  EXPECT_EQ(fleet.cohorts[0].devices, 32u);
  EXPECT_EQ(fleet.cohorts[1].devices, 16u);
  EXPECT_EQ(fleet.overall.cohort, "ALL");
  EXPECT_EQ(fleet.overall.devices, 48u);
  EXPECT_EQ(fleet.overall.energy_j.stats().count(), 48u);
  EXPECT_EQ(fleet.overall.energy_j.histogram().count(), 48u);
  EXPECT_EQ(fleet.policy_name, "SIMTY");

  FleetResult reference;
  reference.policy_name = "SIMTY";
  reference.devices = fc.devices;
  for (std::size_t c = 0; c < fc.cohorts.size(); ++c) {
    const CohortSpec& spec = fc.cohorts[c];
    std::vector<CohortAggregate> shards;
    for (std::uint64_t begin = 0; begin < counts[c]; begin += fc.shard_devices) {
      CohortAggregate shard(spec.name);
      const std::uint64_t end = std::min(begin + fc.shard_devices, counts[c]);
      for (std::uint64_t d = begin; d < end; ++d) {
        const DeviceSample sample = sample_device(spec, fc.seed, d);
        shard.add(device_metrics(exp::run_experiment(
            device_config(spec, sample, fc.policy, fc.similarity))));
      }
      shards.push_back(std::move(shard));
    }
    reference.cohorts.push_back(merge_pairwise(std::move(shards)));
  }
  std::vector<CohortAggregate> all(reference.cohorts);
  reference.overall = merge_pairwise(std::move(all));
  reference.overall.cohort = "ALL";

  expect_identical(fleet, reference);
}

TEST(FleetRunner, FleetCsvDigestIsPinned) {
  // The fleet's exact output bits: the FNV-1a digest of the full-precision
  // CSV of a one-cohort, 8-device, seed-5 SIMTY fleet, recorded once and
  // never regenerated. A mismatch means a refactor moved an aggregate bit.
  CohortSpec phones;
  phones.name = "phones";
  phones.min_apps = 2;
  phones.max_apps = 4;
  phones.standby = Duration::minutes(3);
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE(jobs);
    FleetConfig fc;
    fc.cohorts = {phones};
    fc.devices = 8;
    fc.policy = exp::PolicyKind::kSimty;
    fc.seed = 5;
    fc.jobs = jobs;
    fc.shard_devices = 8;
    EXPECT_EQ(common::fnv1a64(fleet_csv({run_fleet(fc)})), 0x3b626a5b8b3fda4cull);
  }
}

TEST(FleetRunner, DeviceRunsDifferAcrossTheFleet) {
  // Sanity against a degenerate sampler: devices must not all be clones.
  const FleetResult r = run_fleet(quick_fleet(exp::PolicyKind::kNative, 1));
  EXPECT_GT(r.overall.energy_j.stats().stddev(), 0.0);
  EXPECT_LT(r.overall.energy_j.stats().min(), r.overall.energy_j.stats().max());
}

TEST(FleetRunner, ShardExceptionPropagatesDeterministically) {
  // An unknown policy kind makes every device run throw inside the shard
  // tasks; serial and parallel paths must both surface std::logic_error
  // (first failure in submission order) and leak nothing.
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE(jobs);
    FleetConfig fc = quick_fleet(static_cast<exp::PolicyKind>(99), jobs);
    try {
      run_fleet(fc);
      FAIL() << "expected std::logic_error";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown policy kind"),
                std::string::npos);
    }
  }
  // The pool drained cleanly: a healthy fleet still runs afterwards.
  const FleetResult ok = run_fleet(quick_fleet(exp::PolicyKind::kSimty, 4));
  EXPECT_EQ(ok.overall.devices, 48u);
}

TEST(FleetRunner, ValidatesItsConfig) {
  FleetConfig fc = quick_fleet(exp::PolicyKind::kSimty, 1);
  fc.devices = 0;
  EXPECT_THROW(run_fleet(fc), std::logic_error);
  fc = quick_fleet(exp::PolicyKind::kSimty, 1);
  fc.shard_devices = 0;
  EXPECT_THROW(run_fleet(fc), std::logic_error);
  fc = quick_fleet(exp::PolicyKind::kSimty, 1);
  fc.cohorts[0].min_apps = 0;
  EXPECT_THROW(run_fleet(fc), std::logic_error);
}

TEST(FleetRunner, SingleDeviceFleetAndEmptyCohortTail) {
  // 1 device over two weighted cohorts: the second cohort gets zero
  // devices but still appears (empty) in the result.
  FleetConfig fc = quick_fleet(exp::PolicyKind::kSimty, 2);
  fc.devices = 1;
  const FleetResult r = run_fleet(fc);
  ASSERT_EQ(r.cohorts.size(), 2u);
  EXPECT_EQ(r.cohorts[0].devices, 1u);
  EXPECT_EQ(r.cohorts[1].devices, 0u);
  EXPECT_TRUE(r.cohorts[1].energy_j.stats().empty());
  EXPECT_EQ(r.cohorts[1].energy_j.quantile(0.95), 0.0);  // empty → 0
  EXPECT_EQ(r.overall.devices, 1u);
}

TEST(FleetRunner, DefaultCohortsAreUsedWhenUnset) {
  FleetConfig fc;
  fc.devices = 8;
  fc.jobs = 1;
  fc.cohorts.clear();
  // Default cohorts are heavier (10-minute standby); keep the fleet tiny.
  const FleetResult r = run_fleet(fc);
  EXPECT_EQ(r.cohorts.size(), default_cohorts().size());
  EXPECT_EQ(r.overall.devices, 8u);
}

TEST(FleetRunner, TracerRecordsBalancedFleetSpansIdentically) {
#if defined(SIMTY_TRACE_DISABLED)
  GTEST_SKIP() << "tracing is compiled out (-DSIMTY_TRACING=OFF), so the tracer records "
                  "nothing and there are no spans to compare";
#endif
  trace::Tracer serial_tracer, parallel_tracer;
  FleetConfig fc = quick_fleet(exp::PolicyKind::kSimty, 1);
  fc.devices = 16;
  fc.tracer = &serial_tracer;
  run_fleet(fc);
  fc.jobs = 4;
  fc.tracer = &parallel_tracer;
  run_fleet(fc);
  EXPECT_EQ(serial_tracer.open_spans(), 0);
  EXPECT_GT(serial_tracer.size(), 0u);
  // Fleet-level tracing happens on the calling thread only, so the trace
  // is identical whether the shards ran serially or on workers.
  EXPECT_EQ(serial_tracer.binary(), parallel_tracer.binary());
}

TEST(FleetReport, RendersEveryCohortAndCsvShape) {
  const FleetResult r = run_fleet(quick_fleet(exp::PolicyKind::kSimty, 2));
  const std::string report = render_fleet_report(r);
  EXPECT_NE(report.find("phones"), std::string::npos);
  EXPECT_NE(report.find("degraded"), std::string::npos);
  EXPECT_NE(report.find("ALL"), std::string::npos);
  const std::string csv = fleet_csv({r});
  // Header + (2 cohorts + ALL) * 4 metrics rows.
  std::size_t lines = 0;
  for (const char ch : csv) lines += ch == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 1u + 3u * 4u);
  EXPECT_NE(csv.find("SIMTY,phones,32,energy_j,32,"), std::string::npos);
  EXPECT_NE(csv.find("SIMTY,ALL,48,delay_norm,48,"), std::string::npos);
}

}  // namespace
}  // namespace simty::fleet
