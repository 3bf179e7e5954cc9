#pragma once
// Android 4.4's native alignment policy (paper §2.1, baseline "NATIVE").

#include "alarm/policy.hpp"

namespace simty::alarm {

/// Sequentially scans the queue and joins the first entry whose window
/// overlap (the entry's running window intersection) overlaps the new
/// alarm's window interval; otherwise a new entry is created. Uses window
/// intervals only — no grace, no hardware awareness.
///
/// Indexed path: the window-overlap condition *is* the candidate query, so
/// selection degenerates to taking the first candidate in queue order.
class NativePolicy : public AlignmentPolicy {
 public:
  std::string name() const override { return "NATIVE"; }

  std::optional<std::size_t> select_batch(
      const Alarm& alarm,
      const BatchQueue& queue) const override;

  std::optional<CandidateQuery> candidate_query(
      const Alarm& alarm) const override;

  std::optional<std::size_t> select_among(
      const Alarm& alarm, const BatchQueue& queue,
      std::span<const std::size_t> candidates) const override;
};

}  // namespace simty::alarm
