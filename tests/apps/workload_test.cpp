#include "apps/workload.hpp"

#include <gtest/gtest.h>

#include "alarm/native_policy.hpp"
#include "apps/trace_replay.hpp"
#include "support/framework_fixture.hpp"

namespace simty::apps {
namespace {

class WorkloadTest : public test::FrameworkFixture {};

TEST_F(WorkloadTest, LightDeploys12Apps) {
  init(std::make_unique<alarm::NativePolicy>());
  Workload w = Workload::light(WorkloadConfig{});
  EXPECT_EQ(w.apps().size(), 12u);
  w.deploy(sim_, *manager_);
  sim_.run_until(at(300));  // launches done (5 + 12*7 < 300)
  EXPECT_EQ(manager_->stats().registrations, 12u);
  for (const auto& app : w.apps()) {
    EXPECT_TRUE(app->alarm_id().has_value());
  }
}

TEST_F(WorkloadTest, HeavyDeploys18AppsWithImitatedIrregulars) {
  init(std::make_unique<alarm::NativePolicy>());
  Workload w = Workload::heavy(WorkloadConfig{});
  EXPECT_EQ(w.apps().size(), 18u);
  int imitated = 0;
  for (const auto& app : w.apps()) {
    if (dynamic_cast<const ImitatedApp*>(app.get()) != nullptr) ++imitated;
  }
  EXPECT_EQ(imitated, 5);  // the five starred Table 3 apps
}

TEST_F(WorkloadTest, LaunchesAreStaggered) {
  init(std::make_unique<alarm::NativePolicy>());
  WorkloadConfig c;
  c.first_launch = Duration::seconds(5);
  c.launch_gap = Duration::seconds(7);
  Workload w = Workload::light(c);
  w.deploy(sim_, *manager_);
  sim_.run_until(at(6));
  EXPECT_EQ(manager_->stats().registrations, 1u);  // only the first launched
  sim_.run_until(at(13));
  EXPECT_EQ(manager_->stats().registrations, 2u);
  sim_.run_until(at(100));
  EXPECT_EQ(manager_->stats().registrations, 12u);
}

TEST_F(WorkloadTest, BetaPropagatesToAlarms) {
  init(std::make_unique<alarm::NativePolicy>());
  WorkloadConfig c;
  c.beta = 0.80;
  Workload w = Workload::light(c);
  w.deploy(sim_, *manager_);
  sim_.run_until(at(200));
  for (const auto& app : w.apps()) {
    const alarm::Alarm* a = manager_->find(*app->alarm_id());
    ASSERT_NE(a, nullptr);
    const double grace_factor =
        a->spec().grace_length.ratio(a->spec().repeat_interval);
    EXPECT_NEAR(grace_factor, std::max(0.80, app->profile().alpha), 1e-9);
  }
}

TEST_F(WorkloadTest, ImitatedTracesIndependentOfRunSeed) {
  // Fairness requirement (§4.1): irregular apps replay the SAME trace no
  // matter the run seed, so NATIVE and SIMTY see identical behaviour.
  WorkloadConfig c1;
  c1.seed = 1;
  WorkloadConfig c2;
  c2.seed = 2;
  Workload w1 = Workload::heavy(c1);
  Workload w2 = Workload::heavy(c2);
  for (std::size_t i = 0; i < w1.apps().size(); ++i) {
    auto* a = dynamic_cast<ImitatedApp*>(w1.apps()[i].get());
    auto* b = dynamic_cast<ImitatedApp*>(w2.apps()[i].get());
    ASSERT_EQ(a == nullptr, b == nullptr);
    if (a == nullptr) continue;
    ASSERT_EQ(a->trace_length(), kImitatedTraceLength);
    ASSERT_EQ(b->trace_length(), kImitatedTraceLength);
    for (std::size_t j = 0; j < kImitatedTraceLength; ++j) {
      EXPECT_EQ(a->entry(j).hold, b->entry(j).hold) << j;
      EXPECT_EQ(a->entry(j).hardware, b->entry(j).hardware) << j;
    }
  }
}

TEST_F(WorkloadTest, SyntheticGeneratesRequestedCount) {
  init(std::make_unique<alarm::NativePolicy>());
  Workload w = Workload::synthetic(25, WorkloadConfig{});
  EXPECT_EQ(w.apps().size(), 25u);
  for (const auto& app : w.apps()) {
    EXPECT_GT(app->profile().repeat, Duration::zero());
    EXPECT_FALSE(app->profile().hardware.empty());
  }
  EXPECT_THROW(Workload::synthetic(0, WorkloadConfig{}), std::logic_error);
}

TEST_F(WorkloadTest, FromProfilesBuildsCustomScenario) {
  init(std::make_unique<alarm::NativePolicy>());
  std::vector<AppProfile> profiles;
  AppProfile p;
  p.name = "custom";
  p.repeat = Duration::seconds(120);
  p.alpha = 0.5;
  p.mode = alarm::RepeatMode::kStatic;
  p.hardware = hw::ComponentSet{hw::Component::kWifi};
  p.base_hold = Duration::seconds(2);
  profiles.push_back(p);
  p.name = "custom-irregular";
  p.irregular = true;
  profiles.push_back(p);

  Workload w = Workload::from_profiles(profiles, WorkloadConfig{});
  ASSERT_EQ(w.apps().size(), 2u);
  EXPECT_EQ(w.apps()[0]->profile().name, "custom");
  EXPECT_NE(dynamic_cast<const ImitatedApp*>(w.apps()[1].get()), nullptr);
  EXPECT_THROW(Workload::from_profiles({}, WorkloadConfig{}), std::logic_error);

  w.deploy(sim_, *manager_);
  sim_.run_until(at(400));
  EXPECT_GT(manager_->stats().deliveries, 0u);
}

TEST_F(WorkloadTest, SyntheticDeterministicPerSeed) {
  WorkloadConfig c;
  c.seed = 5;
  Workload a = Workload::synthetic(10, c);
  Workload b = Workload::synthetic(10, c);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(a.apps()[i]->profile().repeat, b.apps()[i]->profile().repeat);
    EXPECT_EQ(a.apps()[i]->profile().hardware.bits(),
              b.apps()[i]->profile().hardware.bits());
  }
}

}  // namespace
}  // namespace simty::apps
