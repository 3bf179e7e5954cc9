#include "exp/experiment.hpp"

#include "power/monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace simty::exp {
namespace {

ExperimentConfig quick(PolicyKind policy, WorkloadKind workload) {
  ExperimentConfig c;
  c.policy = policy;
  c.workload = workload;
  c.duration = Duration::hours(1);
  return c;
}

TEST(Experiment, RunProducesCoherentResult) {
  const RunResult r = run_experiment(quick(PolicyKind::kNative, WorkloadKind::kLight));
  EXPECT_EQ(r.policy_name, "NATIVE");
  EXPECT_GT(r.deliveries, 0.0);
  EXPECT_GT(r.energy.total().mj(), 0.0);
  EXPECT_GT(r.energy.sleep.mj(), 0.0);
  EXPECT_GT(r.average_power_mw, 0.0);
  EXPECT_GT(r.projected_standby_hours, 0.0);
  // Time accounting: awake + asleep + waking transitions == duration; the
  // waking slices are small, so check the sum is close to 3600 s.
  EXPECT_NEAR(r.awake_seconds + r.asleep_seconds, 3600.0, 120.0);
  ASSERT_EQ(r.wakeups.size(), 5u);
  EXPECT_EQ(r.wakeups[0].hardware, "CPU");
  EXPECT_GT(r.wakeups[0].actual, 0.0);
  EXPECT_GE(r.wakeups[0].expected, r.wakeups[0].actual);
}

TEST(Experiment, DeterministicForSameSeed) {
  const RunResult a = run_experiment(quick(PolicyKind::kSimty, WorkloadKind::kLight));
  const RunResult b = run_experiment(quick(PolicyKind::kSimty, WorkloadKind::kLight));
  EXPECT_DOUBLE_EQ(a.energy.total().mj(), b.energy.total().mj());
  EXPECT_DOUBLE_EQ(a.deliveries, b.deliveries);
  EXPECT_DOUBLE_EQ(a.delay_imperceptible, b.delay_imperceptible);
}

TEST(Experiment, SeedsVaryTheRun) {
  ExperimentConfig c = quick(PolicyKind::kNative, WorkloadKind::kLight);
  const RunResult a = run_experiment(c);
  c.seed = 99;
  const RunResult b = run_experiment(c);
  EXPECT_NE(a.energy.total().mj(), b.energy.total().mj());
}

TEST(Experiment, EnergyConservation) {
  // The accountant's categories must add up: total = sleep + awake parts.
  const RunResult r = run_experiment(quick(PolicyKind::kSimty, WorkloadKind::kHeavy));
  const double sum = r.energy.sleep.mj() + r.energy.waking.mj() +
                     r.energy.awake_base.mj() + r.energy.wake_transitions.mj() +
                     r.energy.component_active.mj() +
                     r.energy.component_activation.mj();
  EXPECT_NEAR(r.energy.total().mj(), sum, 1e-6);
  // Average power * duration = total energy.
  EXPECT_NEAR(r.average_power_mw * 3600.0, r.energy.total().mj(),
              r.energy.total().mj() * 1e-9);
}

TEST(Experiment, AverageResultsIsComponentwiseMean) {
  RunResult a;
  a.energy.sleep = Energy::joules(100);
  a.wakeups.push_back({"CPU", 100, 200});
  RunResult b = a;
  b.energy.sleep = Energy::joules(300);
  b.wakeups[0] = {"CPU", 200, 400};
  // Every table scalar gets its own pair of values; which of the two is
  // larger alternates, so a max fold cannot pass as "keep the last".
  int k = 0;
  for_each_scalar([&](const char*, Fold, auto member) {
    using T = std::remove_reference_t<decltype(a.*member)>;
    ++k;
    a.*member = static_cast<T>(k % 2 == 0 ? 10 * k + 6 : 10 * k + 2);
    b.*member = static_cast<T>(k % 2 == 0 ? 10 * k + 2 : 10 * k + 6);
  });
  ASSERT_GT(k, 0);

  for (const RunResult& mean : {average_results({a, b}), average_results({b, a})}) {
    EXPECT_NEAR(mean.energy.sleep.joules_f(), 200.0, 1e-9);
    EXPECT_NEAR(mean.wakeups[0].actual, 150.0, 1e-12);
    EXPECT_NEAR(mean.wakeups[0].expected, 300.0, 1e-12);
    EXPECT_EQ(mean.runs, 2);
    for_each_scalar([&](const char* name, Fold fold, auto member) {
      using T = std::remove_reference_t<decltype(a.*member)>;
      const T x = a.*member;
      const T y = b.*member;
      switch (fold) {
        case Fold::kMean: EXPECT_EQ(mean.*member, (x + y) / 2) << name; break;
        case Fold::kMax: EXPECT_EQ(mean.*member, std::max(x, y)) << name; break;
        case Fold::kSum: EXPECT_EQ(mean.*member, x + y) << name; break;
      }
    });
  }
  // The rules themselves are pinned: the §3.2.2 audit reports the worst gap
  // over the seeds and the total of guarantee breaches; the rest are means.
  for_each_scalar([](const char* name, Fold fold, auto) {
    const std::string n = name;
    const Fold want = n == "worst_gap_ratio" ? Fold::kMax
                      : n == "gap_violations" || n == "perceptible_window_misses"
                          ? Fold::kSum
                          : Fold::kMean;
    EXPECT_EQ(fold, want) << name;
  });
}

TEST(Experiment, RunRepeatedAveragesSeeds) {
  ExperimentConfig c = quick(PolicyKind::kNative, WorkloadKind::kLight);
  const RunResult mean = run_repeated(c, 2);
  EXPECT_EQ(mean.runs, 2);
  const RunResult s1 = run_experiment(c);
  c.seed = 2;
  const RunResult s2 = run_experiment(c);
  EXPECT_NEAR(mean.energy.total().mj(),
              (s1.energy.total().mj() + s2.energy.total().mj()) / 2.0, 1e-6);
}

TEST(Experiment, SystemAlarmsToggle) {
  ExperimentConfig with = quick(PolicyKind::kNative, WorkloadKind::kLight);
  ExperimentConfig without = with;
  without.system_alarms = false;
  const RunResult a = run_experiment(with);
  const RunResult b = run_experiment(without);
  EXPECT_GT(a.deliveries, b.deliveries);
}

TEST(Experiment, RepeatedStatsTracksSpread) {
  ExperimentConfig c = quick(PolicyKind::kNative, WorkloadKind::kLight);
  const RepeatedStats stats = run_repeated_stats(c, 3);
  EXPECT_EQ(stats.total_j.count(), 3u);
  EXPECT_EQ(stats.cpu_wakeups.count(), 3u);
  // The mean matches the accumulated mean.
  EXPECT_NEAR(stats.mean.energy.total().joules_f(), stats.total_j.mean(), 1e-9);
  // Seeds differ, so there is real spread.
  EXPECT_GT(stats.total_j.stddev(), 0.0);
  EXPECT_GT(stats.total_j.min(), 0.0);
  EXPECT_GE(stats.total_j.max(), stats.total_j.min());
}

TEST(Experiment, ExtraPowerListenerReceivesRun) {
  power::PowerMonitor monitor;
  ExperimentConfig c = quick(PolicyKind::kSimty, WorkloadKind::kLight);
  c.extra_power_listener = &monitor;
  const RunResult r = run_experiment(c);
  monitor.finalize(TimePoint::origin() + c.duration);
  // The external monitor measured the same total energy the internal
  // accountant reported.
  EXPECT_NEAR(monitor.total_energy().mj(), r.energy.total().mj(),
              r.energy.total().mj() * 1e-9);
  EXPECT_GT(monitor.waveform().size(), 10u);
}

TEST(Experiment, DozeConfigDefersAndViolates) {
  ExperimentConfig plain = quick(PolicyKind::kSimty, WorkloadKind::kLight);
  plain.duration = Duration::hours(3);
  ExperimentConfig dozing = plain;
  dozing.doze = true;
  const RunResult a = run_experiment(plain);
  const RunResult b = run_experiment(dozing);
  EXPECT_LT(b.energy.total().mj(), a.energy.total().mj());
  EXPECT_EQ(a.gap_violations, 0u);
  EXPECT_GT(b.gap_violations, 0u);  // doze breaks periodicity, measurably
  EXPECT_GT(b.worst_gap_ratio, 3.0);
}

TEST(Experiment, AverageResultsEmptyVectorThrows) {
  EXPECT_THROW(average_results({}), std::logic_error);
}

TEST(Experiment, AverageResultsSingleRunIsIdentity) {
  RunResult r;
  r.policy_name = "SIMTY";
  r.energy.sleep = Energy::joules(123);
  r.average_power_mw = 4.5;
  r.delay_imperceptible = 0.07;
  r.deliveries = 17;
  r.wakeups.push_back({"CPU", 100, 200});
  r.worst_gap_ratio = 1.9;
  r.gap_violations = 2;
  r.perceptible_window_misses = 1;
  const RunResult mean = average_results({r});
  EXPECT_EQ(mean.policy_name, "SIMTY");
  EXPECT_EQ(mean.runs, 1);
  EXPECT_EQ(mean.energy.sleep.mj(), r.energy.sleep.mj());
  EXPECT_EQ(mean.average_power_mw, r.average_power_mw);
  EXPECT_EQ(mean.delay_imperceptible, r.delay_imperceptible);
  EXPECT_EQ(mean.deliveries, r.deliveries);
  ASSERT_EQ(mean.wakeups.size(), 1u);
  EXPECT_EQ(mean.wakeups[0].actual, 100.0);
  EXPECT_EQ(mean.wakeups[0].expected, 200.0);
  EXPECT_EQ(mean.worst_gap_ratio, r.worst_gap_ratio);
  EXPECT_EQ(mean.gap_violations, r.gap_violations);
  EXPECT_EQ(mean.perceptible_window_misses, r.perceptible_window_misses);
}

TEST(Experiment, RepeatedStatsSingleRepetitionHasZeroSpread) {
  ExperimentConfig c = quick(PolicyKind::kNative, WorkloadKind::kLight);
  const RepeatedStats stats = run_repeated_stats(c, 1);
  EXPECT_EQ(stats.mean.runs, 1);
  EXPECT_EQ(stats.total_j.count(), 1u);
  EXPECT_EQ(stats.cpu_wakeups.count(), 1u);
  // One sample: the spread fields must be exactly zero, not NaN.
  EXPECT_EQ(stats.total_j.variance(), 0.0);
  EXPECT_EQ(stats.total_j.stddev(), 0.0);
  EXPECT_EQ(stats.total_j.ci95_halfwidth(), 0.0);
  EXPECT_EQ(stats.total_j.min(), stats.total_j.max());
  EXPECT_EQ(stats.total_j.mean(), stats.total_j.min());
  // The mean of one run is that run.
  const RunResult single = run_experiment(c);
  EXPECT_EQ(stats.mean.energy.total().mj(), single.energy.total().mj());
  EXPECT_NEAR(stats.total_j.mean(), single.energy.total().joules_f(), 1e-12);
}

TEST(Experiment, PolicyAndWorkloadNames) {
  EXPECT_STREQ(to_string(PolicyKind::kNative), "NATIVE");
  EXPECT_STREQ(to_string(PolicyKind::kSimty), "SIMTY");
  EXPECT_STREQ(to_string(PolicyKind::kExact), "EXACT");
  EXPECT_STREQ(to_string(PolicyKind::kSimtyDuration), "SIMTY-DUR");
  EXPECT_STREQ(to_string(WorkloadKind::kLight), "light");
  EXPECT_STREQ(to_string(WorkloadKind::kHeavy), "heavy");
  EXPECT_STREQ(to_string(WorkloadKind::kSynthetic), "synthetic");

  // parse_* is the inverse of to_string over lowercase names.
  for (const PolicyKind p : {PolicyKind::kNative, PolicyKind::kSimty, PolicyKind::kExact,
                             PolicyKind::kSimtyDuration, PolicyKind::kFixedInterval}) {
    std::string name = to_string(p);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    EXPECT_EQ(parse_policy(name), p) << name;
    EXPECT_EQ(parse_policy(to_string(p)), std::nullopt) << "uppercase " << name;
  }
  for (const WorkloadKind w :
       {WorkloadKind::kLight, WorkloadKind::kHeavy, WorkloadKind::kSynthetic}) {
    EXPECT_EQ(parse_workload(to_string(w)), w);
  }
  for (const char* bad : {"", "all", "simty-", "simty-durx", "nat", "LIGHT", "?"}) {
    EXPECT_EQ(parse_policy(bad), std::nullopt) << bad;
    EXPECT_EQ(parse_workload(bad), std::nullopt) << bad;
  }
}

}  // namespace
}  // namespace simty::exp
