// Compiles the umbrella header and exercises one symbol from each module
// family — guards against the umbrella drifting out of sync.

#include "simty.hpp"

#include <gtest/gtest.h>

namespace simty {
namespace {

TEST(Umbrella, OneSymbolPerModuleFamily) {
  EXPECT_EQ(Duration::seconds(1).ms(), 1000);                       // common
  sim::Simulator sim;                                               // sim
  EXPECT_EQ(sim.now(), TimePoint::origin());
  EXPECT_FALSE(hw::is_user_perceptible(hw::Component::kWifi));      // hw
  EXPECT_GT(net::WifiLinkConfig{}.good_rate_kbps, 0.0);             // net
  EXPECT_EQ(alarm::hardware_similarity(hw::ComponentSet::none(),
                                       hw::ComponentSet::none()),
            alarm::SimilarityLevel::kLow);                          // alarm
  EXPECT_GT(gcm::GcmConfig{}.heartbeat_interval, Duration::zero()); // gcm
  EXPECT_EQ(power::EnergyBreakdown{}.total().mj(), 0.0);            // power
  EXPECT_EQ(apps::table3_catalog().size(), 18u);                    // apps
  trace::DeliveryLog log;                                           // trace
  EXPECT_EQ(log.size(), 0u);
  metrics::DelayStats delays;                                       // metrics
  EXPECT_EQ(delays.perceptible().deliveries, 0u);
  EXPECT_STREQ(exp::to_string(exp::PolicyKind::kSimty), "SIMTY");   // exp
}

}  // namespace
}  // namespace simty
