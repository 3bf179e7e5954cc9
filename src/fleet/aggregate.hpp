#pragma once
// Deterministic streaming aggregation of fleet metrics.
//
// Each device run is reduced to a DeviceMetrics row; shards fold their rows
// into MetricAggregates (Welford mean/variance + a fixed-bin percentile
// sketch on metrics/histogram); shard aggregates combine through
// merge_pairwise — a balanced binary reduction whose tree shape depends
// only on the shard count, never on worker scheduling. Together with the
// fixed shard partition (FleetConfig::shard_devices, never derived from
// --jobs) that makes fleet aggregates bit-identical at any worker count:
// histogram merges are exact integer folds, and the Welford merges happen
// in one fixed order.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "metrics/histogram.hpp"

namespace simty::exp {
struct RunResult;
}

namespace simty::fleet {

/// The per-device metrics the fleet tracks, one line each: X(name,
/// histogram upper bound, buckets). A line declares the DeviceMetrics field
/// and CohortAggregate stream of that name, and drives add/merge and the
/// fleet_csv rows. Shards share the linear histogram geometry so sketches
/// merge; overflow quantiles resolve to the max.
#define SIMTY_FLEET_METRICS(X)                                               \
  X(energy_j, 1000.0, 500)         /* session joules; 2 J per bucket */      \
  X(avg_power_mw, 400.0, 400)      /* average standby mW; 1 mW per bucket */ \
  X(wakeups_per_hour, 720.0, 360)  /* CPU wakeup rate; 2 per bucket */       \
  X(delay_norm, 2.0, 400)          /* imperceptible delay < 1+beta; 0.005 */

/// One metric stream: Welford stats plus a percentile sketch.
class MetricAggregate {
 public:
  MetricAggregate(double hist_upper, std::size_t hist_buckets)
      : hist_(hist_upper, hist_buckets) {}

  void add(double v) {
    stats_.add(v);
    hist_.add(v);
  }
  void merge(const MetricAggregate& other) {
    stats_.merge(other.stats_);
    hist_.merge(other.hist_);
  }

  const OnlineStats& stats() const { return stats_; }
  const metrics::Histogram& histogram() const { return hist_; }

  /// Sketch quantile; 0 when empty.
  double quantile(double q) const { return hist_.empty() ? 0.0 : hist_.quantile(q); }

 private:
  OnlineStats stats_;
  metrics::Histogram hist_;
};

/// The per-device metric row the fleet tracks (SIMTY_FLEET_METRICS).
struct DeviceMetrics {
#define SIMTY_DECLARE_FIELD(name, upper, buckets) double name = 0.0;
  SIMTY_FLEET_METRICS(SIMTY_DECLARE_FIELD)
#undef SIMTY_DECLARE_FIELD
};

/// Reduces one device run to its metric row.
DeviceMetrics device_metrics(const exp::RunResult& r);

/// Aggregates of one cohort (or one shard of it, or the whole fleet).
struct CohortAggregate {
  std::string cohort;
  std::uint64_t devices = 0;
#define SIMTY_DECLARE_STREAM(name, upper, buckets) \
  MetricAggregate name{upper, buckets};
  SIMTY_FLEET_METRICS(SIMTY_DECLARE_STREAM)
#undef SIMTY_DECLARE_STREAM

  CohortAggregate() = default;
  explicit CohortAggregate(std::string name) : cohort(std::move(name)) {}

  /// Calls f(name, stream member pointer, DeviceMetrics field pointer) per
  /// metric, in list order.
  template <typename F>
  static void for_each_metric(F&& f) {
#define SIMTY_VISIT_METRIC(name, upper, buckets) \
  f(#name, &CohortAggregate::name, &DeviceMetrics::name);
    SIMTY_FLEET_METRICS(SIMTY_VISIT_METRIC)
#undef SIMTY_VISIT_METRIC
  }

  void add(const DeviceMetrics& m) {
    ++devices;
    for_each_metric([&](const char*, auto stream, auto field) {
      (this->*stream).add(m.*field);
    });
  }

  /// Folds `other` in; keeps this aggregate's name.
  void merge(const CohortAggregate& other) {
    devices += other.devices;
    for_each_metric([&](const char*, auto stream, auto) {
      (this->*stream).merge(other.*stream);
    });
  }
};

/// Balanced binary pairwise reduction in submission order: round k merges
/// neighbor pairs (0,1)(2,3)..., the odd tail carries over. The tree shape
/// is a pure function of items.size(), so repeated reductions of the same
/// shards are bit-identical — and the O(log n) depth bounds Welford-merge
/// rounding growth, which is what the two-pass-reference property tests
/// measure. Works for any T with merge(const T&).
template <typename T>
T merge_pairwise(std::vector<T> items) {
  SIMTY_CHECK_MSG(!items.empty(), "merge_pairwise of zero shards");
  std::size_t n = items.size();
  while (n > 1) {
    std::size_t out = 0;
    for (std::size_t i = 0; i + 1 < n; i += 2) {
      items[i].merge(items[i + 1]);
      if (out != i) items[out] = std::move(items[i]);
      ++out;
    }
    if (n % 2 == 1) {
      items[out] = std::move(items[n - 1]);
      ++out;
    }
    n = out;
  }
  return std::move(items.front());
}

}  // namespace simty::fleet
