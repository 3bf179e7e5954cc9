#pragma once
// Duration-similarity extension (paper §5, future work): among entries that
// tie on Table-1 rank, prefer the one whose expected hardware-hold duration
// is closest to the new alarm's — aligning a 10 s WPS scan with another
// 10 s scan amortizes more on-time than aligning it with a 1 s blip.

#include "alarm/simty_policy.hpp"

namespace simty::alarm {

/// SIMTY with a duration-similarity tie-break in the selection phase.
class DurationSimtyPolicy : public SimtyPolicy {
 public:
  explicit DurationSimtyPolicy(SimilarityConfig config = {})
      : SimtyPolicy(config) {}

  std::string name() const override { return "SIMTY-DUR"; }

 protected:
  bool prefers_over(const Alarm& alarm, const Batch& candidate,
                    const Batch& incumbent) const override;
};

/// Similarity of two expected holds as the min/max ratio in [0, 1]
/// (1 = identical durations; 0 when either is still unknown/zero).
double duration_similarity(Duration a, Duration b);

}  // namespace simty::alarm
