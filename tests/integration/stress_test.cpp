// Randomized stress test: a storm of register/set/cancel operations
// interleaved with deliveries, under every policy. After every burst the
// manager's structural invariants must hold, and at the end all delivery
// guarantees must have been respected. This is the fuzz-style complement
// to the scenario-driven property sweep.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "alarm/exact_policy.hpp"
#include "alarm/fixed_interval_policy.hpp"
#include "alarm/native_policy.hpp"
#include "alarm/simty_policy.hpp"
#include "common/rng.hpp"
#include "support/framework_fixture.hpp"

namespace simty {
namespace {

using alarm::AlarmId;
using alarm::AlarmSpec;
using alarm::RepeatMode;
using hw::Component;
using hw::ComponentSet;

struct StressCase {
  const char* policy;
  std::uint64_t seed;
};

std::string stress_name(const ::testing::TestParamInfo<StressCase>& info) {
  return std::string(info.param.policy) + "_s" + std::to_string(info.param.seed);
}

class ManagerStressTest : public test::FrameworkFixture,
                          public ::testing::WithParamInterface<StressCase> {
 protected:
  std::unique_ptr<alarm::AlignmentPolicy> make_policy(const std::string& name) {
    if (name == "native") return std::make_unique<alarm::NativePolicy>();
    if (name == "simty") return std::make_unique<alarm::SimtyPolicy>();
    if (name == "fixed") {
      return std::make_unique<alarm::FixedIntervalPolicy>(Duration::seconds(120));
    }
    return std::make_unique<alarm::ExactPolicy>();
  }
};

TEST_P(ManagerStressTest, RandomOperationStormKeepsInvariants) {
  const StressCase& p = GetParam();
  init(make_policy(p.policy));
  Rng rng(p.seed, 0x57E5);

  const ComponentSet kSets[] = {
      ComponentSet::none(), ComponentSet{Component::kWifi},
      ComponentSet{Component::kWps}, ComponentSet{Component::kAccelerometer},
      ComponentSet{Component::kSpeaker, Component::kVibrator}};

  std::vector<AlarmId> live;
  std::uint64_t next_tag = 0;

  auto register_random = [&] {
    const auto mode = rng.chance(0.2)   ? RepeatMode::kOneShot
                      : rng.chance(0.5) ? RepeatMode::kStatic
                                        : RepeatMode::kDynamic;
    const TimePoint first =
        sim_.now() + Duration::seconds(5 + static_cast<std::int64_t>(rng.next_below(300)));
    AlarmId id;
    if (mode == RepeatMode::kOneShot) {
      id = manager_->register_alarm(
          AlarmSpec::one_shot("one" + std::to_string(next_tag++), alarm::AppId{1},
                              Duration::seconds(rng.next_below(60))),
          first, task(kSets[rng.next_below(5)], Duration::seconds(1)));
    } else {
      const double alpha = rng.chance(0.4) ? 0.0 : 0.75;
      AlarmSpec spec = AlarmSpec::repeating(
          "rep" + std::to_string(next_tag++), alarm::AppId{1}, mode,
          Duration::seconds(60 + rng.next_below(600)), alpha, 0.96);
      if (rng.chance(0.2)) spec.kind = alarm::AlarmKind::kNonWakeup;
      id = manager_->register_alarm(spec, first,
                                    task(kSets[rng.next_below(5)],
                                         Duration::seconds(1 + rng.next_below(4))));
    }
    live.push_back(id);
  };

  for (int burst = 0; burst < 40; ++burst) {
    const int ops = 1 + static_cast<int>(rng.next_below(5));
    for (int op = 0; op < ops; ++op) {
      // Drop ids that disappeared (delivered one-shots).
      std::erase_if(live, [&](AlarmId id) { return !manager_->is_registered(id); });
      const double dice = rng.next_double();
      if (dice < 0.5 || live.empty()) {
        register_random();
      } else if (dice < 0.8) {
        const AlarmId victim = live[rng.next_below(
            static_cast<std::uint32_t>(live.size()))];
        manager_->set(victim,
                      sim_.now() + Duration::seconds(
                                       5 + static_cast<std::int64_t>(rng.next_below(400))));
      } else {
        const std::size_t idx = rng.next_below(static_cast<std::uint32_t>(live.size()));
        manager_->cancel(live[idx]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      }
      const auto issues = manager_->check_invariants();
      ASSERT_TRUE(issues.empty()) << ::testing::PrintToString(issues);
    }
    // Let time pass and deliveries happen.
    sim_.run_until(sim_.now() + Duration::seconds(30 + rng.next_below(300)));
    const auto issues = manager_->check_invariants();
    ASSERT_TRUE(issues.empty()) << ::testing::PrintToString(issues);
  }

  // Global delivery-guarantee audit over everything that happened.
  // Non-wakeup alarms are exempt from the postponement bounds: §3.2.2
  // applies to them only while the device stays awake; asleep, they wait
  // for the next wakeup like under the native policy.
  ASSERT_FALSE(deliveries_.empty());
  for (const auto& r : deliveries_) {
    EXPECT_GE(r.delivered, r.nominal) << r.tag;
    if (r.kind == alarm::AlarmKind::kNonWakeup) continue;
    if (r.was_perceptible) {
      EXPECT_LE(r.delivered, r.window.end() + model_.wake_latency) << r.tag;
    } else {
      EXPECT_LE(r.delivered,
                r.nominal + r.repeat_interval * 0.96 + model_.wake_latency)
          << r.tag;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    StressSweep, ManagerStressTest,
    ::testing::Values(StressCase{"native", 1}, StressCase{"native", 2},
                      StressCase{"simty", 1}, StressCase{"simty", 2},
                      StressCase{"simty", 3}, StressCase{"exact", 1},
                      StressCase{"fixed", 1}, StressCase{"fixed", 2}),
    stress_name);

}  // namespace
}  // namespace simty
