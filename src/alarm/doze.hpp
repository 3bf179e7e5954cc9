#pragma once
// Android-M-style Doze controller.
//
// The modern AOSP answer to the problem this paper attacks: once the device
// has idled long enough, ALL wakeup alarms are deferred to maintenance
// windows whose spacing grows over time; any external interaction (user
// button, push) exits doze. Doze saves more energy than window/grace-based
// alignment because it ignores both — and the interval audit shows exactly
// what that costs: deliveries drift far beyond their repeating intervals.
// Implemented on the AlarmManager's DeliveryGate hook.

#include <cstdint>
#include <vector>

#include "alarm/alarm_manager.hpp"
#include "hw/device.hpp"
#include "sim/simulator.hpp"
#include "snapshot/codec.hpp"

namespace simty::alarm {

/// Maintenance-window scheduler gating the RTC.
class DozeController {
 public:
  struct Config {
    /// Idle time (no external interaction) before doze engages.
    Duration idle_threshold = Duration::minutes(30);

    /// Maintenance-window spacing; escalates through the list and stays at
    /// the last entry (AOSP uses roughly 1h/2h/4h/6h).
    std::vector<Duration> window_schedule = {Duration::hours(1), Duration::hours(2),
                                             Duration::hours(4), Duration::hours(6)};
  };

  DozeController(sim::Simulator& sim, AlarmManager& manager, hw::Device& device,
                 Config config);

  DozeController(const DozeController&) = delete;
  DozeController& operator=(const DozeController&) = delete;

  /// Installs the gate and arms the idle timer. Call once.
  void enable();

  bool dozing() const { return dozing_; }
  std::uint64_t doze_entries() const { return doze_entries_; }
  std::uint64_t maintenance_windows() const { return maintenance_windows_; }

  /// The snapshot carries the doze phase, window schedule position, and the
  /// pending idle timer. restore() expects the controller to be enable()d
  /// exactly as the saved one was (the gate and wake listener are
  /// re-installed by enable(); the idle timer is rebound, not re-armed).
  void restore(snapshot::SectionReader& s);

  /// State fields, in snapshot order.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("enabled", snapshot::same(self.enabled_));
    f("dozing", self.dozing_);
    f("schedule_index", self.schedule_index_);
    f("next_window", self.next_window_);
    f("idle_timer", self.idle_timer_);
    f("doze_entries", self.doze_entries_);
    f("maintenance_windows", self.maintenance_windows_);
  }

 private:
  TimePoint gate(TimePoint proposed);
  void enter_doze();
  void exit_doze();
  void arm_idle_timer();

  sim::Simulator& sim_;
  AlarmManager& manager_;
  hw::Device& device_;
  Config config_;

  bool enabled_ = false;
  bool dozing_ = false;
  std::size_t schedule_index_ = 0;
  TimePoint next_window_;
  std::optional<sim::EventId> idle_timer_;
  std::uint64_t doze_entries_ = 0;
  std::uint64_t maintenance_windows_ = 0;
};

}  // namespace simty::alarm
