#pragma once
// Fixed-interval alignment: the "immediate remedy" of ref [5] that the
// paper's introduction cites as evidence for centralized wakeup management
// ("allows a smartphone to be awakened only at a fixed time interval by
// forcibly aligning background activities within each interval").
//
// The timeline is cut into slots of length T; an alarm may only join
// entries whose delivery falls in its own slot, so wakeups quantize to at
// most a handful per slot. Unlike the original remedy, this implementation
// refuses to break delivery guarantees: joins still require grace overlap
// (window overlap when a perceptible party is involved), so alarms whose
// grace cannot reach a slot-mate get their own entry. It is the crude
// time-only strawman between NATIVE and SIMTY.

#include "alarm/policy.hpp"

namespace simty::alarm {

/// Slot-quantized alignment with a configurable interval.
class FixedIntervalPolicy : public AlignmentPolicy {
 public:
  explicit FixedIntervalPolicy(Duration interval);

  std::string name() const override;

  Duration interval() const { return interval_; }

  std::optional<std::size_t> select_batch(
      const Alarm& alarm,
      const BatchQueue& queue) const override;

 private:
  std::int64_t slot_of(TimePoint t) const;

  /// The join condition: same slot as the alarm's nominal, and applicable
  /// per the §3.2.1 guard rails.
  bool joinable(std::int64_t slot, const TimeInterval& window,
                const TimeInterval& grace, bool alarm_perceptible,
                const Batch& entry) const;

  Duration interval_;
};

}  // namespace simty::alarm
