#pragma once
// Closed time intervals on the simulated timeline.
//
// Alarm windows and grace intervals are closed intervals [start, end]. The
// alignment policies reason almost exclusively in terms of interval overlap
// and intersection, so those operations live here, including the "empty"
// interval that arises when intersecting disjoint member windows inside an
// imperceptible queue entry (paper §3.2.1).

#include <optional>
#include <string>

#include "common/time.hpp"

namespace simty {

/// A closed interval [start, end] of simulated time; may be empty.
///
/// The canonical empty interval has start > end. All operations treat every
/// empty interval identically regardless of its endpoints.
class TimeInterval {
 public:
  /// Constructs [start, end]; if start > end the interval is empty.
  constexpr TimeInterval(TimePoint start, TimePoint end) : start_(start), end_(end) {}

  /// The degenerate single-point interval [t, t] (used for window length 0,
  /// i.e. alarms with alpha = 0 that must fire exactly at their nominal time).
  static constexpr TimeInterval point(TimePoint t) { return TimeInterval{t, t}; }

  /// [start, start + length]; length must be non-negative.
  static TimeInterval from_length(TimePoint start, Duration length);

  /// A canonical empty interval.
  static constexpr TimeInterval empty() {
    return TimeInterval{TimePoint::from_us(1), TimePoint::from_us(0)};
  }

  constexpr bool is_empty() const { return start_ > end_; }
  constexpr TimePoint start() const { return start_; }
  constexpr TimePoint end() const { return end_; }

  /// Length of the interval; zero for empty or single-point intervals.
  Duration length() const;

  /// True when `t` lies inside the (non-empty) interval.
  bool contains(TimePoint t) const;

  /// True when the two intervals share at least one point. Empty intervals
  /// overlap nothing.
  bool overlaps(const TimeInterval& o) const;

  /// Set intersection; empty result when the intervals are disjoint.
  TimeInterval intersect(const TimeInterval& o) const;

  /// Shifts both endpoints by `d` (empty intervals stay empty).
  TimeInterval shifted(Duration d) const;

  /// Equality treats all empty intervals as equal.
  bool operator==(const TimeInterval& o) const;

  std::string to_string() const;

  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("start", self.start_);
    f("end", self.end_);
  }

 private:
  TimePoint start_;
  TimePoint end_;
};

}  // namespace simty
