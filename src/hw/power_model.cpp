#include "hw/power_model.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace simty::hw {

PowerModel PowerModel::nexus5() {
  PowerModel m;
  // Calibration targets (paper §2.2, measured with a Monsoon monitor):
  //   bare wakeup                 ≈ 180 mJ
  //   solo WPS fix (10 s scan)    ≈ 3,650 mJ
  //   solo notification (1 s)     ≈ 400 mJ
  m.component(Component::kWifi) = {Energy::millijoules(30.0), Power::milliwatts(250.0), 0.4};
  m.component(Component::kWps) = {Energy::millijoules(952.0), Power::milliwatts(60.0), 0.0};
  m.component(Component::kGps) = {Energy::millijoules(500.0), Power::milliwatts(350.0), 0.0};
  m.component(Component::kCellular) = {Energy::millijoules(60.0), Power::milliwatts(300.0), 0.5};
  m.component(Component::kAccelerometer) = {Energy::millijoules(5.0), Power::milliwatts(30.0), 0.0};
  m.component(Component::kSpeaker) = {Energy::millijoules(6.0), Power::milliwatts(40.0), 0.0};
  m.component(Component::kVibrator) = {Energy::millijoules(6.0), Power::milliwatts(50.0), 0.0};
  m.component(Component::kScreen) = {Energy::millijoules(50.0), Power::milliwatts(400.0), 0.0};
  // Wake-up receiver: listen draw orders of magnitude below the main radio's
  // paging-on power (Rostami et al., arXiv 2001.00914 report µW–mW class
  // receivers against ~100 mW main-radio DRX on-durations).
  m.component(Component::kWur) = {Energy::millijoules(0.5), Power::milliwatts(0.1), 0.0};
  return m;
}

PowerModel PowerModel::wearable() {
  PowerModel m;
  m.sleep = Power::milliwatts(3.0);
  m.waking = Power::milliwatts(45.0);
  m.awake_base = Power::milliwatts(60.0);
  m.wake_transition = Energy::millijoules(10.0);
  m.wake_latency = Duration::millis(120);
  m.idle_linger = Duration::millis(200);
  m.handler_floor = Duration::millis(250);
  m.component(Component::kWifi) = {Energy::millijoules(8.0), Power::milliwatts(45.0), 0.4};
  m.component(Component::kWps) = {Energy::millijoules(150.0), Power::milliwatts(25.0), 0.0};
  m.component(Component::kGps) = {Energy::millijoules(120.0), Power::milliwatts(90.0), 0.0};
  m.component(Component::kCellular) = {Energy::millijoules(20.0), Power::milliwatts(80.0), 0.5};
  m.component(Component::kAccelerometer) = {Energy::millijoules(1.0), Power::milliwatts(8.0), 0.0};
  m.component(Component::kSpeaker) = {Energy::millijoules(2.0), Power::milliwatts(15.0), 0.0};
  m.component(Component::kVibrator) = {Energy::millijoules(2.0), Power::milliwatts(20.0), 0.0};
  m.component(Component::kScreen) = {Energy::millijoules(12.0), Power::milliwatts(90.0), 0.0};
  m.component(Component::kWur) = {Energy::millijoules(0.2), Power::milliwatts(0.05), 0.0};
  return m;
}

const ComponentPower& PowerModel::component(Component c) const {
  return components[static_cast<std::size_t>(c)];
}

ComponentPower& PowerModel::component(Component c) {
  return components[static_cast<std::size_t>(c)];
}

Energy PowerModel::solo_delivery_energy(ComponentSet set, Duration hold) const {
  SIMTY_CHECK(!hold.is_negative());
  const Duration busy = set.empty() ? Duration::zero() : hold;
  const Duration awake_time = std::max(handler_floor, busy) + idle_linger;
  Energy total = wake_transition + awake_base * awake_time;
  set.for_each([&](Component c) {
    const ComponentPower& p = component(c);
    total += p.activation + p.active * hold;
  });
  return total;
}

}  // namespace simty::hw
