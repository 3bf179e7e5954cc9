#include <gtest/gtest.h>

#include "alarm/native_policy.hpp"
#include "alarm/simty_policy.hpp"
#include "common/strings.hpp"
#include "support/framework_fixture.hpp"

namespace simty::alarm {
namespace {

class PolicySwapTest : public test::FrameworkFixture {};

TEST_F(PolicySwapTest, RebatchAllIsIdempotentOnStableQueues) {
  init(std::make_unique<SimtyPolicy>());
  for (int i = 0; i < 4; ++i) {
    manager_->register_alarm(
        AlarmSpec::repeating(str_format("s%d", i), AppId{1},
                             RepeatMode::kStatic, Duration::seconds(600), 0.75,
                             0.96),
        at(100 + 50 * i), noop_task());
  }
  const std::size_t before = manager_->queue(AlarmKind::kWakeup).size();
  manager_->rebatch_all();
  EXPECT_EQ(manager_->queue(AlarmKind::kWakeup).size(), before);
  EXPECT_TRUE(manager_->check_invariants().empty());
}

TEST_F(PolicySwapTest, RebatchAllOnEmptyManagerIsSafe) {
  init(std::make_unique<NativePolicy>());
  manager_->rebatch_all();
  EXPECT_TRUE(manager_->queue(AlarmKind::kWakeup).empty());
  EXPECT_FALSE(rtc_->programmed().has_value());
}

}  // namespace
}  // namespace simty::alarm
