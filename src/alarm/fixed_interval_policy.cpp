#include "alarm/fixed_interval_policy.hpp"

#include "alarm/similarity.hpp"
#include "common/check.hpp"
#include "common/strings.hpp"

namespace simty::alarm {

FixedIntervalPolicy::FixedIntervalPolicy(Duration interval) : interval_(interval) {
  SIMTY_CHECK_MSG(interval_ > Duration::zero(),
                  "fixed alignment interval must be positive");
}

std::string FixedIntervalPolicy::name() const {
  return str_format("FIXED-%s", interval_.to_string().c_str());
}

std::int64_t FixedIntervalPolicy::slot_of(TimePoint t) const {
  return t.us() / interval_.us();
}

bool FixedIntervalPolicy::joinable(std::int64_t slot, const TimeInterval& window,
                                   const TimeInterval& grace,
                                   bool alarm_perceptible,
                                   const Batch& entry) const {
  if (slot_of(entry.delivery_time()) != slot) return false;
  // Guard rails: never break the delivery guarantees while batching within
  // the slot.
  const SimilarityLevel time = time_similarity(
      window, grace, entry.window_interval(), entry.grace_interval());
  return is_applicable(time, alarm_perceptible, entry.perceptible());
}

std::optional<std::size_t> FixedIntervalPolicy::select_batch(
    const Alarm& alarm, const BatchQueue& queue) const {
  const std::int64_t slot = slot_of(alarm.nominal());
  const TimeInterval window = alarm.window_interval();
  const TimeInterval grace = alarm.grace_interval();
  const bool alarm_perceptible = alarm.perceptible();
  // The policy's one pass over the queue: join the first joinable entry.
  // simty-lint: allow(queue-scan)
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (joinable(slot, window, grace, alarm_perceptible, *queue[i])) return i;
  }
  return std::nullopt;
}

}  // namespace simty::alarm
