#pragma once
// Adjacent-delivery-interval audit: verifies the delivery-behaviour
// guarantees of §3.2.2 — for every repeating alarm the gap between adjacent
// deliveries is bounded by (1 + beta) * ReIn (SIMTY) / (1 + alpha) * ReIn
// (NATIVE) above, and by ReIn (dynamic) / (1 - beta) * ReIn (static) below.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "alarm/alarm_manager.hpp"
#include "common/arena.hpp"

namespace simty::snapshot {
class Writer;
class SectionReader;
}  // namespace simty::snapshot

namespace simty::metrics {

/// Gap statistics for one repeating alarm.
struct GapStats {
  std::string tag;
  alarm::RepeatMode mode = alarm::RepeatMode::kStatic;
  Duration repeat = Duration::zero();
  bool ever_perceptible = false;  // classified perceptible at any delivery
  bool last_perceptible = false;  // classification at the latest delivery
  std::uint64_t deliveries = 0;
  Duration min_gap = Duration::max();
  Duration max_gap = Duration::zero();
  TimePoint last_delivered;  // the latest delivery's instant

  double min_gap_over_repeat() const;
  double max_gap_over_repeat() const;
};

/// One detected guarantee violation.
struct GapViolation {
  std::string tag;
  bool upper = false;  // true: max bound exceeded; false: min bound undercut
  double observed_ratio = 0.0;
  double bound = 0.0;
};

/// Delivery observer tracking per-alarm adjacent gaps. A non-null `arena`
/// backs the per-alarm table; it must outlive the audit.
class IntervalAudit {
 public:
  /// One audited alarm: its id and gap statistics.
  using Entry = std::pair<std::uint64_t, GapStats>;

  explicit IntervalAudit(common::Arena* arena = nullptr) : stats_(arena) {}

  void observe(const alarm::DeliveryRecord& record);
  alarm::DeliveryObserver observer();

  /// Per-alarm gap statistics in ascending id order (repeating alarms with
  /// >= 2 deliveries have meaningful min/max).
  const common::ArenaVector<Entry>& stats() const { return stats_; }

  /// The statistics of alarm `id`, or nullptr when it was never audited.
  const GapStats* find(std::uint64_t id) const;

  /// Checks §3.2.2's bounds against every audited alarm. `beta` is the
  /// platform grace factor in force; under NATIVE pass the same value as
  /// the effective postponement bound is per-alarm alpha, which is
  /// always <= beta. `slack` absorbs the wake-latency slippage the paper
  /// itself observed (ratio units, e.g. 0.01 = 1% of ReIn).
  std::vector<GapViolation> check_bounds(double beta, double slack = 0.01) const;

  /// Worst max-gap/ReIn ratio over imperceptible repeating alarms.
  double worst_gap_ratio() const;

  /// Serializes the gap statistics, then every alarm's latest delivery;
  /// restore replaces any existing state.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::SectionReader& s);

 private:
  common::ArenaVector<Entry> stats_;  // ascending id
};

}  // namespace simty::metrics
