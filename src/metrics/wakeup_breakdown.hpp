#pragma once
// Wakeup breakdown (the paper's Table 4): for the CPU and for every
// wakelockable component, the actually observed number of wakeups/on-cycles
// (numerator) against the expected number had no alignment been applied
// (denominator — one wakeup per delivery).

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "alarm/alarm_manager.hpp"
#include "hw/device.hpp"
#include "hw/wakelock.hpp"

namespace simty::metrics {

/// One Table 4 row.
struct BreakdownRow {
  std::string hardware;       // "CPU", "Speaker&Vibrator", "Wi-Fi", ...
  std::uint64_t actual = 0;   // wakeups / on-cycles observed
  std::uint64_t expected = 0; // one per delivery (no alignment)

  std::string ratio_string() const;  // "733/983"
};

/// Delivery observer accumulating the expected counts; the actual counts
/// are read from the device (CPU) and the wakelock manager (components).
class WakeupAccounting {
 public:
  void observe(const alarm::DeliveryRecord& record);
  alarm::DeliveryObserver observer();

  /// Total alarm deliveries seen (the CPU denominator: one-shot and system
  /// alarms included).
  std::uint64_t total_deliveries() const { return total_deliveries_; }

  /// Deliveries whose task wakelocked `c`.
  std::uint64_t deliveries_using(hw::Component c) const;

  /// Number of Table 4 rows.
  static constexpr std::size_t kRowCount = 5;

  /// Builds the Table 4 rows: CPU, Speaker&Vibrator (combined as in the
  /// paper), Wi-Fi, WPS, Accelerometer.
  std::vector<BreakdownRow> rows(const hw::Device& device,
                                 const hw::WakelockManager& wakelocks) const;

  /// The same rows, in the same order, as f(hardware, actual, expected).
  template <typename F>
  void for_each_row(const hw::Device& device, const hw::WakelockManager& wakelocks,
                    F&& f) const {
    f("CPU", device.wakeup_count(), total_deliveries_);
    // The speaker and vibrator always fire together in the workloads (a
    // notification buzzes and rings), so Table 4 reports them as one row;
    // we take the larger cycle count in case an app ever uses only one.
    f("Speaker&Vibrator",
      std::max(wakelocks.usage(hw::Component::kSpeaker).cycles,
               wakelocks.usage(hw::Component::kVibrator).cycles),
      std::max(deliveries_using(hw::Component::kSpeaker),
               deliveries_using(hw::Component::kVibrator)));
    const struct {
      const char* name;
      hw::Component c;
    } kRows[] = {
        {"Wi-Fi", hw::Component::kWifi},
        {"WPS", hw::Component::kWps},
        {"Accelerometer", hw::Component::kAccelerometer},
    };
    for (const auto& r : kRows) {
      f(r.name, wakelocks.usage(r.c).cycles, deliveries_using(r.c));
    }
  }

  /// State fields (the expected-count accumulators), in snapshot order.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("total_deliveries", self.total_deliveries_);
    f("per_component", self.per_component_);
  }

 private:
  std::uint64_t total_deliveries_ = 0;
  std::array<std::uint64_t, hw::kComponentCount> per_component_{};
};

}  // namespace simty::metrics
