#include "metrics/delay_stats.hpp"

#include <algorithm>


namespace simty::metrics {

double DelayStats::normalized_delay(const alarm::DeliveryRecord& record) {
  if (record.repeat_interval.is_zero()) return 0.0;
  const TimePoint window_end = record.window.end();
  if (record.delivered <= window_end) return 0.0;
  return (record.delivered - window_end).ratio(record.repeat_interval);
}

DelayStats::DelayStats() : distribution_(1.0, 40) {}

void DelayStats::observe(const alarm::DeliveryRecord& record) {
  if (record.mode == alarm::RepeatMode::kOneShot) return;
  DelayGroup& g = record.was_perceptible ? perceptible_ : imperceptible_;
  const double delay = normalized_delay(record);
  ++g.deliveries;
  if (delay > 0.0) ++g.late;
  g.delay_sum += delay;
  g.max_delay = std::max(g.max_delay, delay);
  if (!record.was_perceptible) distribution_.add(delay);
}

alarm::DeliveryObserver DelayStats::observer() {
  return [this](const alarm::DeliveryRecord& r) { observe(r); };
}

}  // namespace simty::metrics
