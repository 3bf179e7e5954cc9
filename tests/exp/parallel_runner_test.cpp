// Determinism conformance: run_sweep / run_repeated fanned out over
// common::parallel_map must produce results that are bit-identical to the
// serial path — every RunResult field, not just the totals — for every
// policy, regardless of worker scheduling.

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "exp/experiment.hpp"
#include "hw/power_bus.hpp"
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
  // Job counts below 1 clamp to the serial path.
  for (const int jobs : {-5, 0, 4}) {
    SCOPED_TRACE(jobs);
    const std::vector<RunResult> other = run_sweep(configs, jobs);
    ASSERT_EQ(serial.size(), other.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE(i);
      expect_identical(serial[i], other[i]);
    }
  }
}

TEST(ParallelRunner, JobsClampToAtLeastOne) {
  // Job counts below 1 run the serial path for repetitions too.
  const ExperimentConfig c = quick(PolicyKind::kSimty);
  const RunResult serial = run_repeated(c, 3, /*jobs=*/1);
  for (const int jobs : {-5, 0}) {
    SCOPED_TRACE(jobs);
    expect_identical(serial, run_repeated(c, 3, jobs));
  }
}

TEST(ParallelRunner, MoreJobsThanConfigsIsFine) {
  const std::vector<ExperimentConfig> configs(2, quick(PolicyKind::kNative));
  const std::vector<RunResult> r = run_sweep(configs, 16);
  ASSERT_EQ(r.size(), 2u);
  expect_identical(r[0], r[1]);  // same config twice → same result
}

/// Counts device-state notifications and notes any that arrive off the
/// thread that constructed it.
struct CountingListener : hw::PowerListener {
  const std::thread::id caller = std::this_thread::get_id();
  int notifications = 0;
  bool off_caller = false;
  void on_device_state(TimePoint, hw::DeviceState, Power) override {
    ++notifications;
    off_caller = off_caller || std::this_thread::get_id() != caller;
  }
};

TEST(ParallelRunner, ExternalHooksForceTheSerialPath) {
  // A caller-owned power listener is not thread-safe; run_repeated must run
  // every seed inline on the caller (so nothing races on the plain counter)
  // while producing the same mean.
  CountingListener listener;
  ExperimentConfig c = quick(PolicyKind::kSimty);
  c.extra_power_listener = &listener;
  const RunResult hooked = run_repeated(c, 2, /*jobs=*/4);
  EXPECT_GT(listener.notifications, 0);
  EXPECT_FALSE(listener.off_caller);
  ExperimentConfig plain = quick(PolicyKind::kSimty);
  const RunResult serial = run_repeated(plain, 2, /*jobs=*/1);
  expect_identical(hooked, serial);
}

TEST(ParallelRunner, ShardExceptionPropagatesCleanly) {
  // Poison one config in the middle of a sweep: make_policy throws for an
  // unknown kind inside the worker. The sweep must surface that exception
  // on the calling thread — same type and message at any job count — and
  // join every worker.
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
  // Nothing leaked: a healthy sweep still works and is unaffected by the
  // earlier failure.
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
  ::unsetenv("SIMTY_JOBS");
  const int hardware = default_jobs();
  EXPECT_GE(hardware, 1);
  ::setenv("SIMTY_JOBS", "3", 1);
  EXPECT_EQ(default_jobs(), 3);
  // Anything but a whole integer in [1, INT_MAX] falls back to the hardware
  // count: 2^32 + 1 must not wrap to 1, nor "3abc" parse as 3.
  for (const char* bad : {"not-a-number", "0", "-2", "4294967297", "3abc", ""}) {
    SCOPED_TRACE(bad);
    ::setenv("SIMTY_JOBS", bad, 1);
    EXPECT_EQ(default_jobs(), hardware);
  }
  ::unsetenv("SIMTY_JOBS");
}

}  // namespace
}  // namespace simty::exp
