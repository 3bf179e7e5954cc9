#include "alarm/native_policy.hpp"

namespace simty::alarm {

std::optional<std::size_t> NativePolicy::select_batch(
    const Alarm& alarm, const BatchQueue& queue) const {
  const TimeInterval window = alarm.window_interval();
  // The §2.1 sequential scan: the policy's one pass over the queue.
  // simty-lint: allow(queue-scan)
  for (std::size_t i = 0; i < queue.size(); ++i) {
    // The entry's window attribute is the intersection of its members'
    // windows, so overlapping it overlaps every member's window — the
    // "every alarm's window interval overlaps with that of the new alarm"
    // condition of §2.1.
    if (queue[i]->window_interval().overlaps(window)) return i;
  }
  return std::nullopt;
}

}  // namespace simty::alarm
