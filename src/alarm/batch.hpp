#pragma once
// Queue entries ("batches"): sets of alarms that will be delivered together.
//
// Entry attributes follow §3.2.1 exactly: the entry window (resp. grace)
// interval is the intersection of its members' window (resp. grace)
// intervals, the hardware set is the union of members' sets, an entry is
// perceptible iff any member is, and its delivery time is the earliest
// point of its window (perceptible) or grace (imperceptible) interval.
// The window intersection may legitimately be empty for an imperceptible
// entry whose members were aligned via medium time similarity.

#include "alarm/alarm.hpp"
#include "common/arena.hpp"
#include "common/interval.hpp"
#include "hw/component.hpp"

namespace simty::alarm {

/// A queue entry of alarms aligned for joint delivery. Holds non-owning
/// pointers into the manager's alarm registry; a non-null `arena` backs the
/// member buffer (the manager's per-run arena).
class Batch {
 public:
  Batch() = default;

  explicit Batch(Alarm* first, common::Arena* arena = nullptr);

  /// Turns this batch into a fresh singleton entry holding `first`, keeping
  /// the member buffer's capacity (the manager recycles delivered batches).
  void reset(Alarm* first);

  /// Adds a member and folds it into the cached attributes incrementally:
  /// interval intersection, hardware-set union, perceptibility OR, and
  /// expected-hold max are all monotone under member addition, so no member
  /// iteration is needed (O(1) modulo the duplicate-membership check).
  void add(Alarm* a);

  /// Removes a member by id; returns false if absent.
  bool remove(AlarmId id);

  bool contains(AlarmId id) const;
  bool empty() const { return members_.empty(); }
  std::size_t size() const { return members_.size(); }
  const common::ArenaVector<Alarm*>& members() const { return members_; }

  /// Intersection of member window intervals; may be empty (see above).
  const TimeInterval& window_interval() const { return window_; }

  /// Intersection of member grace intervals; non-empty for any entry built
  /// by an applicable alignment (asserted by the manager).
  const TimeInterval& grace_interval() const { return grace_; }

  /// Union of members' learned hardware sets.
  hw::ComponentSet hardware() const { return hardware_; }

  /// True iff any member is perceptible.
  bool perceptible() const { return perceptible_; }

  /// Earliest point of the window interval for perceptible entries, of the
  /// grace interval otherwise (§3.2.1).
  TimePoint delivery_time() const;

  /// Largest expected hold among members (duration-similarity extension).
  Duration expected_hold() const { return expected_hold_; }

  /// Recomputes cached attributes from the members (call after member
  /// alarms are rescheduled or re-profiled; removal also rebuilds, since
  /// the aggregates are not invertible).
  void refresh();

 private:
  common::ArenaVector<Alarm*> members_;
  TimeInterval window_ = TimeInterval::empty();
  TimeInterval grace_ = TimeInterval::empty();
  hw::ComponentSet hardware_;
  bool perceptible_ = false;
  Duration expected_hold_ = Duration::zero();
};

/// One batch queue, sorted by delivery time. Entries and the array itself
/// live in the manager's per-run arena when it has one.
using BatchQueue = common::ArenaVector<common::ArenaPtr<Batch>>;

}  // namespace simty::alarm
