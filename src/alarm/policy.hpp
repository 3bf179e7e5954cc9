#pragma once
// Alignment-policy interface.
//
// The alarm manager owns the queue mechanics that the paper describes as
// common to NATIVE and SIMTY (remove-same-alarm, dissolve-and-reinsert,
// wakeup/non-wakeup separation); a policy only answers one question: which
// existing entry, if any, should a new alarm join?
//
// A policy answers it with one scan of the entry queue, as the paper does:
// NATIVE's window-overlap rule (§2.1), SIMTY's search and selection phases
// (§3.2.1). The protocol's queues hold about nine entries, so one linear
// scan per placement is cheaper than maintaining any index over them.

#include <optional>
#include <string>

#include "alarm/alarm.hpp"
#include "alarm/batch.hpp"

namespace simty::alarm {

/// Strategy deciding where an alarm lands in the batch queue.
class AlignmentPolicy {
 public:
  virtual ~AlignmentPolicy() = default;

  /// Display name, e.g. "NATIVE", "SIMTY".
  virtual std::string name() const = 0;

  /// Returns the index (into `queue`, which is sorted by delivery time) of
  /// the entry the alarm should join, or nullopt to create a new entry.
  virtual std::optional<std::size_t> select_batch(
      const Alarm& alarm,
      const BatchQueue& queue) const = 0;
};

}  // namespace simty::alarm
