#pragma once
// Android 4.4's native alignment policy (paper §2.1, baseline "NATIVE").

#include "alarm/policy.hpp"

namespace simty::alarm {

/// Sequentially scans the queue and joins the first entry whose window
/// overlap (the entry's running window intersection) overlaps the new
/// alarm's window interval; otherwise a new entry is created. Uses window
/// intervals only — no grace, no hardware awareness.
class NativePolicy : public AlignmentPolicy {
 public:
  std::string name() const override { return "NATIVE"; }

  std::optional<std::size_t> select_batch(
      const Alarm& alarm,
      const BatchQueue& queue) const override;
};

}  // namespace simty::alarm
