#pragma once
// No-alignment baseline: every alarm gets its own queue entry and is
// delivered at its nominal time. This is the "expected number if no
// alignment policy is applied" of Table 4's denominators, and a useful
// worst-case reference for the energy figures.

#include "alarm/policy.hpp"

namespace simty::alarm {

/// Never aligns anything.
class ExactPolicy : public AlignmentPolicy {
 public:
  std::string name() const override { return "EXACT"; }

  std::optional<std::size_t> select_batch(
      const Alarm&, const BatchQueue&) const override {
    return std::nullopt;
  }
};

}  // namespace simty::alarm
