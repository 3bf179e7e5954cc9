// End-to-end assertions of the paper's headline claims (the "shape" of
// §4.2's results): who wins, by roughly what factor, and which guarantees
// hold. Runs full 3-hour standby sessions.

#include <gtest/gtest.h>

#include "exp/experiment.hpp"

namespace simty::exp {
namespace {

class PaperClaims : public ::testing::Test {
 protected:
  static RunResult run(PolicyKind policy, WorkloadKind workload) {
    ExperimentConfig c;
    c.policy = policy;
    c.workload = workload;
    return run_repeated(c, 3);
  }

  static double cpu_actual(const RunResult& r) { return cpu_wakeups(r).actual; }
  static double hw_actual(const RunResult& r, const std::string& name) {
    for (const auto& w : r.wakeups) {
      if (w.hardware == name) return w.actual;
    }
    return 0.0;
  }

  // Shared across tests in this suite: run each config once.
  static const RunResult& light_native() {
    static const RunResult r = run(PolicyKind::kNative, WorkloadKind::kLight);
    return r;
  }
  static const RunResult& light_simty() {
    static const RunResult r = run(PolicyKind::kSimty, WorkloadKind::kLight);
    return r;
  }
  static const RunResult& heavy_native() {
    static const RunResult r = run(PolicyKind::kNative, WorkloadKind::kHeavy);
    return r;
  }
  static const RunResult& heavy_simty() {
    static const RunResult r = run(PolicyKind::kSimty, WorkloadKind::kHeavy);
    return r;
  }
};

TEST_F(PaperClaims, SimtySavesAwakeEnergy) {
  // §4.2: "energy savings greater than 33% of the energy required by
  // NATIVE" (awake portion). Accept >= 28% to absorb simulator variance.
  const double light_saving = 1.0 - light_simty().energy.awake_total().ratio(
                                        light_native().energy.awake_total());
  const double heavy_saving = 1.0 - heavy_simty().energy.awake_total().ratio(
                                        heavy_native().energy.awake_total());
  EXPECT_GT(light_saving, 0.28);
  EXPECT_GT(heavy_saving, 0.28);
}

TEST_F(PaperClaims, SimtySavesTotalStandbyEnergy) {
  // §4.2: ~20% (light) and ~25% (heavy) of total standby energy.
  const double light_saving =
      1.0 - light_simty().energy.total().ratio(light_native().energy.total());
  const double heavy_saving =
      1.0 - heavy_simty().energy.total().ratio(heavy_native().energy.total());
  EXPECT_GT(light_saving, 0.15);
  EXPECT_LT(light_saving, 0.35);
  EXPECT_GT(heavy_saving, 0.15);
  EXPECT_LT(heavy_saving, 0.35);
}

TEST_F(PaperClaims, StandbyTimeExtendedByQuarterToThird) {
  // The headline: standby time prolonged by one-fourth to one-third.
  const double light_ext = light_simty().projected_standby_hours /
                               light_native().projected_standby_hours -
                           1.0;
  const double heavy_ext = heavy_simty().projected_standby_hours /
                               heavy_native().projected_standby_hours -
                           1.0;
  EXPECT_GT(light_ext, 0.20);
  EXPECT_LT(light_ext, 0.45);
  EXPECT_GT(heavy_ext, 0.20);
  EXPECT_LT(heavy_ext, 0.45);
}

TEST_F(PaperClaims, PerceptibleDelayIsEssentiallyZero) {
  // Fig 4: perceptible normalized delays are zero under both policies
  // (modulo the wake-latency slip).
  EXPECT_LT(light_native().delay_perceptible, 0.005);
  EXPECT_LT(light_simty().delay_perceptible, 0.005);
  EXPECT_LT(heavy_native().delay_perceptible, 0.005);
  EXPECT_LT(heavy_simty().delay_perceptible, 0.005);
}

TEST_F(PaperClaims, ImperceptibleDelayBoundedAndSmallerUnderHeavy) {
  // Fig 4: SIMTY trades ~17.9% (light) / ~13.9% (heavy) of ReIn; the heavy
  // workload's denser queue gives SMALLER delay than light.
  EXPECT_GT(light_simty().delay_imperceptible, 0.05);
  EXPECT_LT(light_simty().delay_imperceptible, 0.25);
  EXPECT_GT(heavy_simty().delay_imperceptible, 0.05);
  EXPECT_LT(heavy_simty().delay_imperceptible, 0.25);
  EXPECT_LT(heavy_simty().delay_imperceptible, light_simty().delay_imperceptible);
}

TEST_F(PaperClaims, NativeDelayIsWakeLatencyArtifactOnly) {
  // Fig 4: NATIVE's imperceptible delay is a fraction of a percent, caused
  // by alpha = 0 alarms slipping one wake latency.
  EXPECT_GT(light_native().delay_imperceptible, 0.0);
  EXPECT_LT(light_native().delay_imperceptible, 0.01);
  EXPECT_LT(heavy_native().delay_imperceptible, 0.01);
}

TEST_F(PaperClaims, SimtySlashesCpuWakeups) {
  // Table 4 shape: SIMTY's CPU wakeups are a fraction of NATIVE's
  // (733->193 and 981->259 in the paper; ~0.26x).
  EXPECT_LT(cpu_actual(light_simty()), 0.65 * cpu_actual(light_native()));
  EXPECT_LT(cpu_actual(heavy_simty()), 0.65 * cpu_actual(heavy_native()));
}

TEST_F(PaperClaims, SimtyApproachesLeastRequiredWakeups) {
  // §4.2: per-component wakeups under SIMTY approach the floor set by the
  // smallest static ReIn wakelocking that hardware: accelerometer
  // 10800/60 = 180, WPS 10800/180 = 60.
  EXPECT_LE(hw_actual(heavy_simty(), "Accelerometer"), 195.0);
  EXPECT_GE(hw_actual(heavy_simty(), "Accelerometer"), 170.0);
  EXPECT_LE(hw_actual(heavy_simty(), "WPS"), 70.0);
  EXPECT_GE(hw_actual(heavy_simty(), "WPS"), 55.0);
  // Wi-Fi can go below 180 because its fastest alarm is dynamic repeating.
  EXPECT_LT(hw_actual(heavy_simty(), "Wi-Fi"), 180.0);
}

TEST_F(PaperClaims, GuaranteesHoldInFullExperiments) {
  for (const RunResult* r :
       {&light_native(), &light_simty(), &heavy_native(), &heavy_simty()}) {
    EXPECT_EQ(r->gap_violations, 0u) << r->policy_name;
    EXPECT_EQ(r->perceptible_window_misses, 0u) << r->policy_name;
    EXPECT_LE(r->worst_gap_ratio, 1.98) << r->policy_name;  // (1+beta)+latency
  }
}

TEST_F(PaperClaims, ExpectedWakeupsSmallerUnderSimty) {
  // Table 4: the expected totals are smaller under SIMTY because dynamic
  // repeating alarms fire less often when postponed.
  auto cpu_expected = [](const RunResult& r) { return cpu_wakeups(r).expected; };
  EXPECT_LT(cpu_expected(light_simty()), cpu_expected(light_native()));
  EXPECT_LT(cpu_expected(heavy_simty()), cpu_expected(heavy_native()));
}

TEST_F(PaperClaims, SleepFloorUntouchedByAlignment) {
  // Fig 3's remark: the sleep-mode energy cannot be reduced by alignment —
  // SIMTY actually sleeps MORE (it is awake less).
  EXPECT_GE(light_simty().energy.sleep.mj(), light_native().energy.sleep.mj());
  EXPECT_GE(heavy_simty().energy.sleep.mj(), heavy_native().energy.sleep.mj());
}

}  // namespace
}  // namespace simty::exp
