// Wake-up receiver: listen rail accounting on the PowerBus, trigger
// impulses tagged for per-component attribution, wakelock accounting of the
// kWur component through the PowerModel entries, and snapshot round trips.

#include "hw/wur.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hw/power_model.hpp"
#include "hw/wakelock.hpp"
#include "power/energy_accounting.hpp"
#include "sim/simulator.hpp"
#include "snapshot/snapshot.hpp"

namespace simty::hw {
namespace {

class WurProbe : public PowerListener {
 public:
  void on_component_power(TimePoint, Component c, bool on, Power level) override {
    if (c == Component::kWur) levels.push_back(on ? level.mw() : 0.0);
  }
  void on_impulse(TimePoint, Energy e, ImpulseKind, std::string_view tag) override {
    impulses.emplace_back(std::string(tag), e.mj());
  }
  std::vector<double> levels;
  std::vector<std::pair<std::string, double>> impulses;
};

class WurTest : public ::testing::Test {
 protected:
  WurTest() {
    bus_.add_listener(&probe_);
    bus_.add_listener(&accountant_);
  }
  TimePoint at(std::int64_t s) { return TimePoint::origin() + Duration::seconds(s); }
  sim::Simulator sim_;
  PowerBus bus_;
  WurProbe probe_;
  power::EnergyAccountant accountant_;
};

TEST_F(WurTest, ListenRailFollowsStartStop) {
  WakeupReceiver wur(sim_, WurConfig{}, bus_);
  EXPECT_FALSE(wur.listening());

  wur.start_listening();
  EXPECT_TRUE(wur.listening());
  ASSERT_EQ(probe_.levels.size(), 1u);
  EXPECT_DOUBLE_EQ(probe_.levels.back(), 0.1);

  // Idempotent: a second start publishes nothing new.
  wur.start_listening();
  EXPECT_EQ(probe_.levels.size(), 1u);

  sim_.run_until(at(100));
  wur.stop_listening();
  EXPECT_FALSE(wur.listening());
  EXPECT_DOUBLE_EQ(probe_.levels.back(), 0.0);
  EXPECT_EQ(wur.listen_time(), Duration::seconds(100));

  wur.stop_listening();  // idempotent
  EXPECT_EQ(probe_.levels.size(), 2u);
}

TEST_F(WurTest, TriggerPaysTaggedImpulseAndReturnsLatency) {
  WurConfig config;
  config.wake_trigger = Energy::millijoules(2.0);
  config.wake_latency = Duration::millis(15);
  WakeupReceiver wur(sim_, config, bus_);

  // Triggering while deaf is a caller bug.
  EXPECT_THROW(wur.trigger(), std::logic_error);

  wur.start_listening();
  EXPECT_EQ(wur.trigger(), Duration::millis(15));
  EXPECT_EQ(wur.trigger(), Duration::millis(15));
  EXPECT_EQ(wur.triggers(), 2u);
  EXPECT_DOUBLE_EQ(wur.trigger_energy().mj(), 4.0);
  ASSERT_EQ(probe_.impulses.size(), 2u);
  // Tagged with the component name so the accountant can attribute it.
  EXPECT_EQ(probe_.impulses[0].first, "wur");
  EXPECT_DOUBLE_EQ(probe_.impulses[0].second, 2.0);
}

TEST_F(WurTest, AccountantAttributesListenAndTriggersToKWur) {
  WakeupReceiver wur(sim_, WurConfig{}, bus_);
  wur.start_listening();
  sim_.run_until(at(1000));
  wur.trigger();
  wur.stop_listening();
  accountant_.finalize(at(1000));

  // 0.1 mW * 1000 s = 100 mJ of listening plus one 2 mJ trigger.
  const Energy attributed =
      accountant_.breakdown().per_component[static_cast<std::size_t>(Component::kWur)];
  EXPECT_NEAR(attributed.mj(), 102.0, 1e-6);
}

TEST_F(WurTest, FinalizeFlushesTheOpenListenSpanIdempotently) {
  WakeupReceiver wur(sim_, WurConfig{}, bus_);
  wur.start_listening();
  sim_.run_until(at(30));
  wur.finalize(at(30));
  EXPECT_EQ(wur.listen_time(), Duration::seconds(30));
  wur.finalize(at(30));  // idempotent at a fixed horizon
  EXPECT_EQ(wur.listen_time(), Duration::seconds(30));
}

TEST_F(WurTest, SnapshotRoundTripsAndReannouncesTheRail) {
  WakeupReceiver wur(sim_, WurConfig{}, bus_);
  wur.start_listening();
  sim_.run_until(at(10));
  wur.trigger();
  wur.stop_listening();
  sim_.run_until(at(12));
  wur.start_listening();

  snapshot::Writer w;
  w.begin_section("wur", 1);
  wur.save(w);
  w.end_section();
  const std::string bytes = w.finish();

  // Fresh stack, construct-then-overwrite.
  sim::Simulator sim2;
  PowerBus bus2;
  WurProbe probe2;
  bus2.add_listener(&probe2);
  sim2.run_until(at(12));
  WakeupReceiver back(sim2, WurConfig{}, bus2);
  const snapshot::Reader r(bytes);
  snapshot::SectionReader s = r.section("wur", 1);
  back.restore(s);

  EXPECT_TRUE(back.listening());
  EXPECT_EQ(back.triggers(), 1u);
  // The restored rail was re-announced to the fresh listener stack.
  ASSERT_FALSE(probe2.levels.empty());
  EXPECT_DOUBLE_EQ(probe2.levels.back(), 0.1);

  sim2.run_until(at(20));
  back.finalize(at(20));
  EXPECT_EQ(back.listen_time(), Duration::seconds(10 + 8));
}

TEST_F(WurTest, WakelockManagerAccountsKWurCycles) {
  // The PowerModel kWur entries make the component wakelockable like any
  // other: acquisition pays the activation impulse, holding bills the
  // active rail, and the usage counters see the cycle.
  const PowerModel model = PowerModel::nexus5();
  EXPECT_DOUBLE_EQ(model.component(Component::kWur).active.mw(), 0.1);
  EXPECT_DOUBLE_EQ(model.component(Component::kWur).activation.mj(), 0.5);

  WakelockManager locks(sim_, model, bus_);
  const WakelockId id = locks.acquire(Component::kWur);
  sim_.run_until(at(2));
  locks.release(id);

  EXPECT_EQ(locks.usage(Component::kWur).cycles, 1u);
  EXPECT_EQ(locks.usage(Component::kWur).on_time, Duration::seconds(2));
  ASSERT_FALSE(probe_.impulses.empty());
  EXPECT_EQ(probe_.impulses[0].first, "wur");
  EXPECT_DOUBLE_EQ(probe_.impulses[0].second, 0.5);
}

}  // namespace
}  // namespace simty::hw
