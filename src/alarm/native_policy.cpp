#include "alarm/native_policy.hpp"

namespace simty::alarm {

std::optional<std::size_t> NativePolicy::select_batch(
    const Alarm& alarm, const BatchQueue& queue) const {
  const TimeInterval window = alarm.window_interval();
  // Linear reference implementation, differentially checked against the
  // indexed candidate path under slow queue checks.
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

std::optional<CandidateQuery> NativePolicy::candidate_query(
    const Alarm& alarm) const {
  return CandidateQuery{alarm.window_interval(), EntryIntervalKind::kWindow};
}

std::optional<std::size_t> NativePolicy::select_among(
    const Alarm&, const BatchQueue&,
    std::span<const std::size_t> candidates) const {
  // Candidates are exactly the entries whose window overlap intersects the
  // alarm's window, in ascending queue position — NATIVE joins the first.
  if (candidates.empty()) return std::nullopt;
  return candidates.front();
}

}  // namespace simty::alarm
