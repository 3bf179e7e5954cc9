// Radio-tail behaviour of the wakelock manager (ref [12] territory: "once
// activated, the network interface will be kept on for longer than
// necessary"); fast dormancy is a short model tail.

#include <gtest/gtest.h>

#include "hw/wakelock.hpp"

namespace simty::hw {
namespace {

class TailProbe : public PowerListener {
 public:
  void on_component_power(TimePoint t, Component, bool on, Power level) override {
    events.push_back({t, on, level});
  }
  void on_impulse(TimePoint, Energy e, ImpulseKind kind, std::string_view) override {
    if (kind == ImpulseKind::kComponentActivation) activations += e.mj();
  }
  struct Event {
    TimePoint t;
    bool on;
    Power level;
  };
  std::vector<Event> events;
  double activations = 0.0;
};

class WakelockTailTest : public ::testing::Test {
 protected:
  WakelockTailTest() : model_(PowerModel::nexus5()) {
    // Give Wi-Fi a pronounced tail for these tests.
    model_.component(Component::kWifi).tail = Duration::seconds(3);
    model_.component(Component::kWifi).tail_power = Power::milliwatts(120);
    bus_.add_listener(&probe_);
    mgr_ = std::make_unique<WakelockManager>(sim_, model_, bus_);
  }
  void advance(Duration d) {
    sim_.run_until(sim_.now() + d);
  }
  sim::Simulator sim_;
  PowerModel model_;
  PowerBus bus_;
  TailProbe probe_;
  std::unique_ptr<WakelockManager> mgr_;
};

TEST_F(WakelockTailTest, ReleaseEntersTailThenPowersDown) {
  const WakelockId id = mgr_->acquire(Component::kWifi);
  advance(Duration::seconds(2));
  mgr_->release(id);
  EXPECT_TRUE(mgr_->in_tail(Component::kWifi));
  EXPECT_FALSE(mgr_->is_on(Component::kWifi));
  // During the tail the rail sits at tail power.
  ASSERT_GE(probe_.events.size(), 2u);
  EXPECT_TRUE(probe_.events.back().on);
  EXPECT_DOUBLE_EQ(probe_.events.back().level.mw(), 120.0);

  advance(Duration::seconds(5));
  EXPECT_FALSE(mgr_->in_tail(Component::kWifi));
  EXPECT_FALSE(probe_.events.back().on);
  // Tail lasted exactly 3 s.
  EXPECT_EQ(mgr_->usage(Component::kWifi).tail_time, Duration::seconds(3));
  EXPECT_EQ(mgr_->usage(Component::kWifi).on_time, Duration::seconds(2));
}

TEST_F(WakelockTailTest, WarmStartSkipsActivation) {
  const double act = model_.component(Component::kWifi).activation.mj();
  const WakelockId a = mgr_->acquire(Component::kWifi);
  advance(Duration::seconds(1));
  mgr_->release(a);
  EXPECT_DOUBLE_EQ(probe_.activations, act);  // one cold start

  advance(Duration::seconds(1));  // still in the 3 s tail
  const WakelockId b = mgr_->acquire(Component::kWifi);
  EXPECT_DOUBLE_EQ(probe_.activations, act);  // NO second activation
  EXPECT_TRUE(mgr_->is_on(Component::kWifi));
  EXPECT_FALSE(mgr_->in_tail(Component::kWifi));
  EXPECT_EQ(mgr_->usage(Component::kWifi).warm_starts, 1u);
  EXPECT_EQ(mgr_->usage(Component::kWifi).cycles, 1u);  // still one cold cycle
  // The interrupted tail only billed 1 s.
  EXPECT_EQ(mgr_->usage(Component::kWifi).tail_time, Duration::seconds(1));
  mgr_->release(b);
}

TEST_F(WakelockTailTest, ColdStartAfterTailExpires) {
  const double act = model_.component(Component::kWifi).activation.mj();
  const WakelockId a = mgr_->acquire(Component::kWifi);
  mgr_->release(a);
  advance(Duration::seconds(10));  // tail long gone
  const WakelockId b = mgr_->acquire(Component::kWifi);
  EXPECT_DOUBLE_EQ(probe_.activations, 2 * act);
  EXPECT_EQ(mgr_->usage(Component::kWifi).cycles, 2u);
  EXPECT_EQ(mgr_->usage(Component::kWifi).warm_starts, 0u);
  mgr_->release(b);
}

TEST_F(WakelockTailTest, FastDormancyIsAShortModelTail) {
  // Fast dormancy (ref [12]) truncates the tail: a 500 ms model tail.
  model_.component(Component::kWifi).tail = Duration::millis(500);
  mgr_ = std::make_unique<WakelockManager>(sim_, model_, bus_);
  const WakelockId id = mgr_->acquire(Component::kWifi);
  advance(Duration::seconds(1));
  mgr_->release(id);
  advance(Duration::millis(600));
  EXPECT_FALSE(mgr_->in_tail(Component::kWifi));
  EXPECT_EQ(mgr_->usage(Component::kWifi).tail_time, Duration::millis(500));
}

TEST_F(WakelockTailTest, ZeroTailComponentPowersDownImmediately) {
  // WPS keeps the calibrated zero tail.
  const WakelockId id = mgr_->acquire(Component::kWps);
  advance(Duration::seconds(1));
  mgr_->release(id);
  EXPECT_FALSE(mgr_->in_tail(Component::kWps));
  EXPECT_EQ(mgr_->usage(Component::kWps).tail_time, Duration::zero());
}

TEST_F(WakelockTailTest, FinalizeFlushesOpenTail) {
  const WakelockId id = mgr_->acquire(Component::kWifi);
  mgr_->release(id);
  advance(Duration::seconds(1));  // 1 s into the 3 s tail
  mgr_->finalize(sim_.now());
  EXPECT_EQ(mgr_->usage(Component::kWifi).tail_time, Duration::seconds(1));
  // Idempotent at the same instant.
  mgr_->finalize(sim_.now());
  EXPECT_EQ(mgr_->usage(Component::kWifi).tail_time, Duration::seconds(1));
}

TEST_F(WakelockTailTest, NestedLocksOnlyTailAfterLastRelease) {
  const WakelockId a = mgr_->acquire(Component::kWifi);
  const WakelockId b = mgr_->acquire(Component::kWifi);
  mgr_->release(a);
  EXPECT_FALSE(mgr_->in_tail(Component::kWifi));
  EXPECT_TRUE(mgr_->is_on(Component::kWifi));
  mgr_->release(b);
  EXPECT_TRUE(mgr_->in_tail(Component::kWifi));
}

}  // namespace
}  // namespace simty::hw
