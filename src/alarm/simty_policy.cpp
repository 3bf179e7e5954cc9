#include "alarm/simty_policy.hpp"

namespace simty::alarm {

SimtyPolicy::SimtyPolicy(SimilarityConfig config) : config_(config) {}

int SimtyPolicy::rank_of(const TimeInterval& window, const TimeInterval& grace,
                         bool alarm_perceptible, const Alarm& alarm,
                         const Batch& entry) const {
  // Search phase: applicability in terms of user experience (§3.2.1).
  const SimilarityLevel time = time_similarity(
      window, grace, entry.window_interval(), entry.grace_interval(), config_);
  if (!is_applicable(time, alarm_perceptible, entry.perceptible())) return -1;

  // Selection phase: Table 1 preferability, hardware similarity first.
  const int hw_grade = hardware_grade(alarm.hardware(), entry.hardware(), config_);
  return preferability_rank(hw_grade, time);
}

std::optional<std::size_t> SimtyPolicy::select_batch(
    const Alarm& alarm, const BatchQueue& queue) const {
  const TimeInterval window = alarm.window_interval();
  const TimeInterval grace = alarm.grace_interval();
  const bool alarm_perceptible = alarm.perceptible();

  std::optional<std::size_t> best;
  int best_rank = 0;

  // Search and selection phases in one pass over the queue (§3.2.1).
  // simty-lint: allow(queue-scan)
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const int rank = rank_of(window, grace, alarm_perceptible, alarm, *queue[i]);
    if (rank < 0) continue;
    if (!best || rank < best_rank ||
        (rank == best_rank && prefers_over(alarm, *queue[i], *queue[*best]))) {
      best = i;
      best_rank = rank;
    }
  }
  return best;
}

bool SimtyPolicy::prefers_over(const Alarm&, const Batch&, const Batch&) const {
  // First-found wins ties, as in the paper.
  return false;
}

}  // namespace simty::alarm
