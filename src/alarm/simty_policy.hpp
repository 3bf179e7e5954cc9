#pragma once
// SIMTY: the paper's similarity-based alignment policy (§3.2).

#include "alarm/policy.hpp"
#include "alarm/similarity.hpp"

namespace simty::alarm {

/// Two-phase alignment. The *search phase* collects every applicable entry:
/// if either party is perceptible the time similarity must be High (window
/// overlap), otherwise Medium (grace overlap) also qualifies — this is what
/// guarantees perceptible alarms stay inside their windows and imperceptible
/// alarms inside their graces. The *selection phase* ranks applicable
/// entries by Table 1 (hardware similarity first, then time similarity) and
/// joins the first-found most-preferable one.
class SimtyPolicy : public AlignmentPolicy {
 public:
  explicit SimtyPolicy(SimilarityConfig config = {});

  std::string name() const override { return "SIMTY"; }

  const SimilarityConfig& config() const { return config_; }

  std::optional<std::size_t> select_batch(
      const Alarm& alarm,
      const BatchQueue& queue) const override;

 protected:
  /// Tie-break hook among entries with equal Table-1 rank; the base policy
  /// keeps the first found (returns false = no preference). The duration-
  /// similarity extension overrides this.
  virtual bool prefers_over(const Alarm& alarm, const Batch& candidate,
                            const Batch& incumbent) const;

 private:
  /// Table-1 preferability of joining `entry`, or -1 when the search phase
  /// rejects it (§3.2.1 applicability). `window`/`grace`/`alarm_perceptible`
  /// are the alarm's, precomputed by the caller.
  int rank_of(const TimeInterval& window, const TimeInterval& grace,
              bool alarm_perceptible, const Alarm& alarm,
              const Batch& entry) const;

  SimilarityConfig config_;
};

}  // namespace simty::alarm
