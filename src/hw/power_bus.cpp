#include "hw/power_bus.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace simty::hw {

const char* to_string(DeviceState s) {
  switch (s) {
    case DeviceState::kAsleep: return "asleep";
    case DeviceState::kWaking: return "waking";
    case DeviceState::kAwake: return "awake";
  }
  return "?";
}

void PowerBus::add_listener(PowerListener* listener) {
  SIMTY_CHECK(listener != nullptr);
  listeners_.push_back(listener);
}

void PowerBus::publish_device_state(TimePoint t, DeviceState state, Power base_level) {
  for (PowerListener* l : listeners_) l->on_device_state(t, state, base_level);
}

void PowerBus::publish_component_power(TimePoint t, Component c, bool on, Power level) {
  for (PowerListener* l : listeners_) l->on_component_power(t, c, on, level);
}

void PowerBus::publish_impulse(TimePoint t, Energy e, ImpulseKind kind,
                               std::string_view tag) {
  for (PowerListener* l : listeners_) l->on_impulse(t, e, kind, tag);
}

}  // namespace simty::hw
