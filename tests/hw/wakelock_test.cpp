#include "hw/wakelock.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace simty::hw {
namespace {

class PowerProbe : public PowerListener {
 public:
  void on_component_power(TimePoint t, Component c, bool on, Power level) override {
    events.push_back({t, c, on, level});
  }
  void on_impulse(TimePoint, Energy e, ImpulseKind kind, std::string_view) override {
    if (kind == ImpulseKind::kComponentActivation) activation_mj += e.mj();
  }
  struct Event {
    TimePoint t;
    Component c;
    bool on;
    Power level;
  };
  std::vector<Event> events;
  double activation_mj = 0.0;
};

class WakelockTest : public ::testing::Test {
 protected:
  WakelockTest() : model_(PowerModel::nexus5()) {
    bus_.add_listener(&probe_);
    mgr_ = std::make_unique<WakelockManager>(sim_, model_, bus_);
  }
  void advance(Duration d) {
    sim_.schedule_after(d, [] {});
    sim_.run_all();
  }
  sim::Simulator sim_;
  PowerModel model_;
  PowerBus bus_;
  PowerProbe probe_;
  std::unique_ptr<WakelockManager> mgr_;
};

TEST_F(WakelockTest, FirstAcquirePowersOnWithActivation) {
  const WakelockId id = mgr_->acquire(Component::kWifi);
  EXPECT_TRUE(mgr_->is_on(Component::kWifi));
  ASSERT_EQ(probe_.events.size(), 1u);
  EXPECT_TRUE(probe_.events[0].on);
  EXPECT_DOUBLE_EQ(probe_.events[0].level.mw(),
                   model_.component(Component::kWifi).active.mw());
  EXPECT_DOUBLE_EQ(probe_.activation_mj,
                   model_.component(Component::kWifi).activation.mj());
  mgr_->release(id);
  EXPECT_FALSE(mgr_->is_on(Component::kWifi));
}

TEST_F(WakelockTest, NestedLocksPayActivationOnce) {
  const WakelockId a = mgr_->acquire(Component::kWps);
  const WakelockId b = mgr_->acquire(Component::kWps);
  EXPECT_EQ(mgr_->lock_count(Component::kWps), 2);
  // One activation, one power-on event — the amortization that makes
  // hardware similarity pay off.
  EXPECT_DOUBLE_EQ(probe_.activation_mj,
                   model_.component(Component::kWps).activation.mj());
  EXPECT_EQ(probe_.events.size(), 1u);
  mgr_->release(a);
  EXPECT_TRUE(mgr_->is_on(Component::kWps));
  mgr_->release(b);
  EXPECT_FALSE(mgr_->is_on(Component::kWps));
  EXPECT_EQ(mgr_->usage(Component::kWps).cycles, 1u);
  EXPECT_EQ(mgr_->usage(Component::kWps).acquisitions, 2u);
}

TEST_F(WakelockTest, SeparateCyclesCountSeparately) {
  const WakelockId a = mgr_->acquire(Component::kWifi);
  mgr_->release(a);
  const WakelockId b = mgr_->acquire(Component::kWifi);
  mgr_->release(b);
  EXPECT_EQ(mgr_->usage(Component::kWifi).cycles, 2u);
  EXPECT_DOUBLE_EQ(probe_.activation_mj,
                   2 * model_.component(Component::kWifi).activation.mj());
}

TEST_F(WakelockTest, OnTimeAccumulatesAcrossCycles) {
  const WakelockId a = mgr_->acquire(Component::kWifi);
  advance(Duration::seconds(3));
  mgr_->release(a);
  advance(Duration::seconds(10));
  const WakelockId b = mgr_->acquire(Component::kWifi);
  advance(Duration::seconds(2));
  mgr_->release(b);
  EXPECT_EQ(mgr_->usage(Component::kWifi).on_time, Duration::seconds(5));
}

TEST_F(WakelockTest, FinalizeFlushesHeldLocks) {
  mgr_->acquire(Component::kAccelerometer);
  advance(Duration::seconds(7));
  mgr_->finalize(sim_.now());
  EXPECT_EQ(mgr_->usage(Component::kAccelerometer).on_time, Duration::seconds(7));
  // Finalize is idempotent at the same instant.
  mgr_->finalize(sim_.now());
  EXPECT_EQ(mgr_->usage(Component::kAccelerometer).on_time, Duration::seconds(7));
}

TEST_F(WakelockTest, IndependentComponentsDoNotInterfere) {
  mgr_->acquire(Component::kWifi);
  mgr_->acquire(Component::kSpeaker);
  EXPECT_TRUE(mgr_->is_on(Component::kWifi));
  EXPECT_TRUE(mgr_->is_on(Component::kSpeaker));
  EXPECT_FALSE(mgr_->is_on(Component::kVibrator));
}

TEST_F(WakelockTest, UnknownReleaseThrows) {
  EXPECT_THROW(mgr_->release(WakelockId{999}), std::logic_error);
  const WakelockId id = mgr_->acquire(Component::kWifi);
  mgr_->release(id);
  EXPECT_THROW(mgr_->release(id), std::logic_error);
}

}  // namespace
}  // namespace simty::hw
