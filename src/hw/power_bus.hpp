#pragma once
// Power event bus: the seam between the device model and the measurement
// stack. The device FSM and the wakelock manager publish piecewise-constant
// power-level changes and discrete energy impulses here; the power monitor
// and the energy accountant (src/power) subscribe. This mirrors how the
// paper's Monsoon monitor sits across the phone's battery rails.

#include <string_view>

#include "common/arena.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "hw/component.hpp"

namespace simty::hw {

/// Device CPU/platform state as seen by the power rails.
enum class DeviceState { kAsleep = 0, kWaking, kAwake };

const char* to_string(DeviceState s);

/// Discrete (non-rate) energy costs.
enum class ImpulseKind {
  kWakeTransition,        // cache/DRAM restore on wakeup
  kComponentActivation,   // bringing a component out of dormancy
};

/// Subscriber interface; default-ignores everything so observers can
/// override only what they need.
class PowerListener {
 public:
  virtual ~PowerListener() = default;

  /// Device base-rail level changed because the FSM moved to `state`.
  virtual void on_device_state(TimePoint t, DeviceState state, Power base_level) {
    (void)t; (void)state; (void)base_level;
  }

  /// Component rail switched on (with the given active power) or off.
  virtual void on_component_power(TimePoint t, Component c, bool on, Power level) {
    (void)t; (void)c; (void)on; (void)level;
  }

  /// One-off energy cost (wake transition, component activation).
  virtual void on_impulse(TimePoint t, Energy e, ImpulseKind kind,
                          std::string_view tag) {
    (void)t; (void)e; (void)kind; (void)tag;
  }
};

/// Fan-out registry. Listeners are non-owning and must outlive the bus's
/// publishers; registration order is notification order (deterministic).
class PowerBus {
 public:
  /// A non-null `arena` backs the listener list; it must outlive the bus.
  explicit PowerBus(common::Arena* arena = nullptr) : listeners_(arena) {}

  void add_listener(PowerListener* listener);

  void publish_device_state(TimePoint t, DeviceState state, Power base_level);
  void publish_component_power(TimePoint t, Component c, bool on, Power level);
  void publish_impulse(TimePoint t, Energy e, ImpulseKind kind, std::string_view tag);

 private:
  common::ArenaVector<PowerListener*> listeners_;
};

}  // namespace simty::hw
