#include "experiments/adaptive.hpp"

#include <gtest/gtest.h>

namespace simty::exp {
namespace {

TEST(AdaptiveBetaController, DefaultProfileBands) {
  const AdaptiveBetaController c = AdaptiveBetaController::default_profile();
  EXPECT_DOUBLE_EQ(c.beta_for(1.0), 0.80);
  EXPECT_DOUBLE_EQ(c.beta_for(0.5), 0.80);
  EXPECT_DOUBLE_EQ(c.beta_for(0.49), 0.90);
  EXPECT_DOUBLE_EQ(c.beta_for(0.2), 0.90);
  EXPECT_DOUBLE_EQ(c.beta_for(0.1), 0.96);
  EXPECT_DOUBLE_EQ(c.beta_for(0.0), 0.96);
}

TEST(AdaptiveBetaController, RejectsBadBandShapes) {
  using Band = AdaptiveBetaController::Band;
  // Empty.
  EXPECT_THROW(AdaptiveBetaController({}), std::logic_error);
  // No floor band.
  EXPECT_THROW(AdaptiveBetaController({Band{0.5, 0.8}}), std::logic_error);
  // Thresholds not descending.
  EXPECT_THROW(AdaptiveBetaController({Band{0.2, 0.8}, Band{0.5, 0.9}, Band{0.0, 0.96}}),
               std::logic_error);
  // Beta decreasing as charge falls.
  EXPECT_THROW(AdaptiveBetaController({Band{0.5, 0.9}, Band{0.0, 0.8}}),
               std::logic_error);
  // Beta out of range.
  EXPECT_THROW(AdaptiveBetaController({Band{0.0, 1.0}}), std::logic_error);
}

TEST(AdaptiveBetaController, SocRangeChecked) {
  const AdaptiveBetaController c = AdaptiveBetaController::default_profile();
  EXPECT_THROW(c.beta_for(-0.1), std::logic_error);
  EXPECT_THROW(c.beta_for(1.1), std::logic_error);
}

class DepletionTest : public ::testing::Test {
 protected:
  static ExperimentConfig segment_config(PolicyKind policy) {
    ExperimentConfig c;
    c.policy = policy;
    c.workload = WorkloadKind::kLight;
    c.duration = Duration::hours(1);
    return c;
  }
  // A small pack so depletion happens in a handful of segments.
  static hw::Battery small_battery() { return hw::Battery(Charge::milliamp_hours(150), 3.8); }
};

TEST_F(DepletionTest, RunsUntilDepleted) {
  const DepletionResult r = run_until_depleted(
      segment_config(PolicyKind::kNative), small_battery());
  EXPECT_TRUE(r.depleted);
  EXPECT_GT(r.history.size(), 1u);
  EXPECT_GT(r.standby_time, Duration::hours(1));
  // SoC decreases monotonically across segments.
  for (std::size_t i = 1; i < r.history.size(); ++i) {
    EXPECT_LT(r.history[i].soc_start, r.history[i - 1].soc_start);
  }
}

TEST_F(DepletionTest, SimtyOutlastsNative) {
  const DepletionResult native = run_until_depleted(
      segment_config(PolicyKind::kNative), small_battery());
  const DepletionResult simty = run_until_depleted(
      segment_config(PolicyKind::kSimty), small_battery());
  ASSERT_TRUE(native.depleted);
  ASSERT_TRUE(simty.depleted);
  // The paper's headline, measured by direct depletion: 1/4 to 1/3 longer.
  const double extension = simty.standby_time.ratio(native.standby_time) - 1.0;
  EXPECT_GT(extension, 0.15);
  EXPECT_LT(extension, 0.45);
}

TEST_F(DepletionTest, AdaptiveControllerEscalatesBeta) {
  const AdaptiveBetaController controller = AdaptiveBetaController::default_profile();
  const DepletionResult r = run_until_depleted(
      segment_config(PolicyKind::kSimty), small_battery(), &controller);
  ASSERT_TRUE(r.depleted);
  // Early segments run gentle, late segments aggressive.
  EXPECT_DOUBLE_EQ(r.history.front().beta, 0.80);
  EXPECT_DOUBLE_EQ(r.history.back().beta, 0.96);
  // Beta never decreases along the run.
  for (std::size_t i = 1; i < r.history.size(); ++i) {
    EXPECT_GE(r.history[i].beta, r.history[i - 1].beta);
  }
}

TEST_F(DepletionTest, AdaptiveLandsBetweenFixedExtremes) {
  const AdaptiveBetaController controller = AdaptiveBetaController::default_profile();
  ExperimentConfig gentle = segment_config(PolicyKind::kSimty);
  gentle.beta = 0.80;
  ExperimentConfig aggressive = segment_config(PolicyKind::kSimty);
  aggressive.beta = 0.96;
  const Duration t_gentle =
      run_until_depleted(gentle, small_battery()).standby_time;
  const Duration t_aggr =
      run_until_depleted(aggressive, small_battery()).standby_time;
  const Duration t_adaptive =
      run_until_depleted(segment_config(PolicyKind::kSimty), small_battery(),
                         &controller)
          .standby_time;
  // Adaptive cannot beat always-aggressive by much nor fall far below
  // always-gentle; allow simulator noise around the bracket.
  const Duration lo = std::min(t_gentle, t_aggr);
  const Duration hi = std::max(t_gentle, t_aggr);
  EXPECT_GE(t_adaptive, lo * 0.97);
  EXPECT_LE(t_adaptive, hi * 1.03);
}

TEST_F(DepletionTest, MaxSegmentsCapRespected) {
  const DepletionResult r = run_until_depleted(
      segment_config(PolicyKind::kNative), hw::Battery::nexus5(), nullptr, 3);
  EXPECT_FALSE(r.depleted);
  EXPECT_EQ(r.history.size(), 3u);
  EXPECT_EQ(r.standby_time, Duration::hours(3));
}

}  // namespace
}  // namespace simty::exp
