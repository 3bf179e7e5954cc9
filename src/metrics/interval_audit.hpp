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
#include "common/check.hpp"
#include "snapshot/codec.hpp"

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

  /// State fields but last_delivered, which IntervalAudit lists apart.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("tag", self.tag);
    f("mode", self.mode);
    f("repeat", self.repeat);
    f("ever_perceptible", self.ever_perceptible);
    f("last_perceptible", self.last_perceptible);
    f("deliveries", self.deliveries);
    f("min_gap", self.min_gap);
    f("max_gap", self.max_gap);
  }

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

  /// State fields: the gap statistics, then every alarm's latest delivery
  /// as (id, instant) in the same order.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("stats", self.stats_);
    f("last_delivered", snapshot::by_hand(
        self.stats_,
        [](snapshot::Writer& w, const auto& stats) {
          w.u64(stats.size());
          for (const Entry& e : stats) {
            w.u64(e.first);
            w.i64(e.second.last_delivered.us());
          }
        },
        [](snapshot::SectionReader& s, auto& stats) {
          SIMTY_CHECK_MSG(s.u64() == stats.size(), "count differs from the stats'");
          for (Entry& e : stats) {
            SIMTY_CHECK_MSG(s.u64() == e.first, "id differs from the stats'");
            e.second.last_delivered = TimePoint::from_us(s.i64());
          }
        }));
  }

  /// Replaces any existing state with the snapshot's.
  void restore(snapshot::SectionReader& s);

 private:
  common::ArenaVector<Entry> stats_;  // ascending id
};

}  // namespace simty::metrics
