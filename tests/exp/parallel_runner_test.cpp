// Determinism conformance: the parallel runner must produce results that
// are bit-identical to the serial path — every RunResult field, not just
// the totals — for every policy, regardless of worker scheduling.

#include "exp/parallel_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "common/check.hpp"
#include "support/result_equality.hpp"

namespace simty::exp {
namespace {

using support::expect_identical;

ExperimentConfig quick(PolicyKind policy) {
  ExperimentConfig c;
  c.policy = policy;
  c.workload = WorkloadKind::kLight;
  c.duration = Duration::hours(1);
  return c;
}

TEST(ParallelRunner, RunRepeatedMatchesSerialForEveryPolicy) {
  for (const PolicyKind policy :
       {PolicyKind::kNative, PolicyKind::kSimty, PolicyKind::kExact,
        PolicyKind::kSimtyDuration}) {
    SCOPED_TRACE(to_string(policy));
    const ExperimentConfig c = quick(policy);
    const RunResult serial = run_repeated(c, 4, /*jobs=*/1);
    const RunResult parallel = run_repeated(c, 4, /*jobs=*/4);
    expect_identical(serial, parallel);
  }
}

TEST(ParallelRunner, RunRepeatedMatchesSerialWithDrxAndWur) {
  // The paging scenario adds a second rng stream and per-run heap objects
  // (pager, receiver); neither may leak scheduling nondeterminism.
  ExperimentConfig drx = quick(PolicyKind::kSimty);
  drx.drx.emplace();
  {
    SCOPED_TRACE("drx");
    const RunResult serial = run_repeated(drx, 4, /*jobs=*/1);
    const RunResult parallel = run_repeated(drx, 4, /*jobs=*/4);
    expect_identical(serial, parallel);
    EXPECT_GT(serial.pages_answered, 0.0);
  }
  ExperimentConfig wur = drx;
  wur.drx->wur = true;
  wur.drx->wur_delay_budget = Duration::seconds(5);
  {
    SCOPED_TRACE("wur");
    const RunResult serial = run_repeated(wur, 4, /*jobs=*/1);
    const RunResult parallel = run_repeated(wur, 4, /*jobs=*/4);
    expect_identical(serial, parallel);
    EXPECT_GT(serial.wur_triggers, 0.0);
  }
}

TEST(ParallelRunner, RunRepeatedStatsMatchesSerial) {
  const ExperimentConfig c = quick(PolicyKind::kSimty);
  const RepeatedStats serial = run_repeated_stats(c, 4, /*jobs=*/1);
  const RepeatedStats parallel = run_repeated_stats(c, 4, /*jobs=*/4);
  expect_identical(serial.mean, parallel.mean);
  EXPECT_EQ(serial.total_j.mean(), parallel.total_j.mean());
  EXPECT_EQ(serial.total_j.stddev(), parallel.total_j.stddev());
  EXPECT_EQ(serial.awake_j.mean(), parallel.awake_j.mean());
  EXPECT_EQ(serial.delay_imperceptible.mean(), parallel.delay_imperceptible.mean());
  EXPECT_EQ(serial.cpu_wakeups.mean(), parallel.cpu_wakeups.mean());
  EXPECT_EQ(serial.standby_hours.mean(), parallel.standby_hours.mean());
}

TEST(ParallelRunner, SweepMatchesSerialAcrossMixedConfigs) {
  // A heterogeneous sweep: all four policies at two betas each, distinct
  // seeds, as a sweep bench would build it.
  std::vector<ExperimentConfig> configs;
  for (const PolicyKind policy :
       {PolicyKind::kNative, PolicyKind::kSimty, PolicyKind::kExact,
        PolicyKind::kSimtyDuration}) {
    for (const double beta : {0.80, 0.96}) {
      ExperimentConfig c = quick(policy);
      c.beta = beta;
      c.seed = configs.size() + 1;
      configs.push_back(c);
    }
  }
  const std::vector<RunResult> serial = run_sweep(configs, 1);
  const std::vector<RunResult> parallel = run_sweep(configs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(serial[i], parallel[i]);
  }
}

TEST(ParallelRunner, MoreJobsThanConfigsIsFine) {
  const std::vector<ExperimentConfig> configs(2, quick(PolicyKind::kNative));
  const std::vector<RunResult> r = run_sweep(configs, 16);
  ASSERT_EQ(r.size(), 2u);
  expect_identical(r[0], r[1]);  // same config twice → same result
}

TEST(ParallelRunner, ExternalHooksForceTheSerialPath) {
  // A caller-owned observer is not thread-safe; run_repeated must fall back
  // to serial execution (and thus not race) while producing the same mean.
  std::atomic<int> seen{0};
  ExperimentConfig c = quick(PolicyKind::kSimty);
  c.extra_delivery_observer = [&seen](const alarm::DeliveryRecord&) { ++seen; };
  const RunResult hooked = run_repeated(c, 2, /*jobs=*/4);
  EXPECT_GT(seen.load(), 0);
  ExperimentConfig plain = quick(PolicyKind::kSimty);
  const RunResult serial = run_repeated(plain, 2, /*jobs=*/1);
  EXPECT_EQ(hooked.deliveries, serial.deliveries);
  EXPECT_EQ(hooked.energy.total().mj(), serial.energy.total().mj());
}

TEST(ParallelRunner, ShardExceptionPropagatesCleanly) {
  // Poison one config in the middle of a sweep: make_policy throws for an
  // unknown kind inside the worker task. The sweep must surface that
  // exception on the calling thread — same type and message at any job
  // count — and the pool must drain without leaking queued tasks.
  std::vector<ExperimentConfig> configs;
  for (int i = 0; i < 6; ++i) configs.push_back(quick(PolicyKind::kSimty));
  configs[3].policy = static_cast<PolicyKind>(99);
  std::string serial_what, parallel_what;
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE(jobs);
    try {
      run_sweep(configs, jobs);
      FAIL() << "expected std::logic_error from the poisoned config";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown policy kind"),
                std::string::npos);
      (jobs == 1 ? serial_what : parallel_what) = e.what();
    }
  }
  // Deterministic failure: serial and parallel report the same error.
  EXPECT_EQ(serial_what, parallel_what);
  // Nothing leaked: a healthy sweep on a fresh pool still works and is
  // unaffected by the earlier failure.
  configs[3].policy = PolicyKind::kSimty;
  const std::vector<RunResult> ok = run_sweep(configs, 4);
  ASSERT_EQ(ok.size(), 6u);
  expect_identical(ok[0], ok[3]);  // identical configs → identical results
}

TEST(ParallelRunner, BadRepetitionCountThrows) {
  EXPECT_THROW(run_repeated(quick(PolicyKind::kNative), 0, 4), std::logic_error);
  EXPECT_THROW(run_repeated_stats(quick(PolicyKind::kNative), 0, 4),
               std::logic_error);
}

TEST(ParallelRunner, DefaultJobsHonoursEnvOverride) {
  ::setenv("SIMTY_JOBS", "3", 1);
  EXPECT_EQ(ParallelRunner::default_jobs(), 3);
  ::setenv("SIMTY_JOBS", "not-a-number", 1);
  EXPECT_GE(ParallelRunner::default_jobs(), 1);
  ::unsetenv("SIMTY_JOBS");
  EXPECT_GE(ParallelRunner::default_jobs(), 1);
}

TEST(ParallelRunner, JobsClampToAtLeastOne) {
  EXPECT_EQ(ParallelRunner(-5).jobs(), 1);
  EXPECT_EQ(ParallelRunner(0).jobs(), 1);
  EXPECT_EQ(ParallelRunner(8).jobs(), 8);
}

}  // namespace
}  // namespace simty::exp
