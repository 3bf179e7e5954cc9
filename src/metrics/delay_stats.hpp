#pragma once
// Normalized-delivery-delay statistics (the paper's user-experience metric,
// Fig 4): an alarm's normalized delay is 0 when delivered inside its window
// and otherwise the lateness beyond the window end divided by its repeating
// interval. Averaged separately over perceptible and imperceptible alarms.

#include <cstdint>

#include "alarm/alarm_manager.hpp"
#include "metrics/histogram.hpp"

namespace simty::metrics {

/// Accumulated delay statistics for one perceptibility class.
struct DelayGroup {
  std::uint64_t deliveries = 0;
  std::uint64_t late = 0;          // delivered beyond the window end
  double delay_sum = 0.0;          // sum of normalized delays
  double max_delay = 0.0;          // worst normalized delay

  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("deliveries", self.deliveries);
    f("late", self.late);
    f("delay_sum", self.delay_sum);
    f("max_delay", self.max_delay);
  }

  /// Average normalized delay (0 when no deliveries).
  double average() const {
    return deliveries == 0 ? 0.0 : delay_sum / static_cast<double>(deliveries);
  }
};

/// Delivery observer computing Fig 4's metric. One-shot alarms have no
/// repeating interval to normalize by and are excluded (the paper's metric
/// is defined for repeating alarms).
class DelayStats {
 public:
  DelayStats();

  void observe(const alarm::DeliveryRecord& record);

  /// Binds this object as an AlarmManager delivery observer.
  alarm::DeliveryObserver observer();

  const DelayGroup& perceptible() const { return perceptible_; }
  const DelayGroup& imperceptible() const { return imperceptible_; }

  /// Full delay distribution of the imperceptible class: normalized-delay
  /// buckets over [0, 1) — the (1 + beta) bound caps delays below 1 ReIn.
  const Histogram& imperceptible_distribution() const { return distribution_; }

  /// Normalized delay of a single record (exposed for tests/analysis).
  static double normalized_delay(const alarm::DeliveryRecord& record);

  /// State fields, in snapshot order.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("perceptible", self.perceptible_);
    f("imperceptible", self.imperceptible_);
    f("distribution", self.distribution_);
  }

 private:
  DelayGroup perceptible_;
  DelayGroup imperceptible_;
  Histogram distribution_;
};

}  // namespace simty::metrics
