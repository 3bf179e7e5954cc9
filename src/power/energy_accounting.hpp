#pragma once
// Energy attribution: integrates the power bus into the categories the
// paper's Fig 3 reports — the sleep floor that alignment cannot touch vs
// the awake energy it can, plus per-component and per-impulse breakdowns.

#include <array>
#include <string_view>

#include "common/time.hpp"
#include "common/units.hpp"
#include "hw/component.hpp"
#include "hw/power_bus.hpp"

namespace simty::snapshot {
class Writer;
class SectionReader;
}  // namespace simty::snapshot

namespace simty::power {

/// Per-category integrated energy. "Awake" aggregates everything except the
/// sleep floor: wake transitions, the waking ramp, the awake base rail, and
/// all component activity.
struct EnergyBreakdown {
  Energy sleep;              // device base rail while asleep
  Energy waking;             // device base rail during wake transitions
  Energy awake_base;         // device base rail while awake
  Energy wake_transitions;   // impulse: wake transition costs
  Energy component_active;   // all component rails while powered
  Energy component_activation;  // impulse: component power-up costs
  std::array<Energy, hw::kComponentCount> per_component{};  // active+activation

  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("sleep", self.sleep);
    f("waking", self.waking);
    f("awake_base", self.awake_base);
    f("wake_transitions", self.wake_transitions);
    f("component_active", self.component_active);
    f("component_activation", self.component_activation);
    f("per_component", self.per_component);
  }

  /// Everything the device spends while not asleep.
  Energy awake_total() const;

  /// Grand total.
  Energy total() const;
};

/// PowerListener that attributes every millijoule to a category.
class EnergyAccountant : public hw::PowerListener {
 public:
  EnergyAccountant() = default;

  void on_device_state(TimePoint t, hw::DeviceState state, Power base_level) override;
  void on_component_power(TimePoint t, hw::Component c, bool on, Power level) override;
  void on_impulse(TimePoint t, Energy e, hw::ImpulseKind kind,
                  std::string_view tag) override;

  /// Flushes open integrations up to `now`; call once at end of run before
  /// reading the breakdown.
  void finalize(TimePoint now);

  const EnergyBreakdown& breakdown() const { return breakdown_; }

  /// Average power over [origin, finalize time]; finalize() must have run.
  Power average_power() const;

  /// Serializes the breakdown and all open integration state (device rail,
  /// component rails). Restoring overwrites whatever ctor-time bus
  /// publishes already accumulated on the fresh stack.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::SectionReader& s);

  /// State fields, in snapshot order.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("breakdown", self.breakdown_);
    f("device_state", self.device_state_);
    f("device_level", self.device_level_);
    f("device_since", self.device_since_);
    f("device_seen", self.device_seen_);
    f("rails", self.rails_);
  }

 private:
  void accumulate_device(TimePoint until);
  void accumulate_component(std::size_t idx, TimePoint until);

  EnergyBreakdown breakdown_;
  hw::DeviceState device_state_ = hw::DeviceState::kAsleep;
  Power device_level_ = Power::zero();
  TimePoint device_since_;
  bool device_seen_ = false;

  struct ComponentRail {
    bool on = false;
    Power level = Power::zero();
    TimePoint since;

    template <typename Self, typename F>
    static void for_each_state_field(Self& self, F&& f) {
      f("on", self.on);
      f("level", self.level);
      f("since", self.since);
    }
  };
  std::array<ComponentRail, hw::kComponentCount> rails_{};
  TimePoint finalized_at_;
  bool finalized_ = false;
};

}  // namespace simty::power
