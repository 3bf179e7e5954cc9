#pragma once
// Fixed-bucket histogram with quantile queries.
//
// Fig 4 reports average normalized delays; averages hide the tail. This
// histogram records the full delay distribution (linear buckets over a
// configurable range plus an overflow bucket) so benches and tests can ask
// for medians and p95/p99 — how late the *worst* imperceptible deliveries
// really are relative to the (1 + beta) bound.

#include <cstdint>
#include <string>
#include <vector>

#include "snapshot/codec.hpp"

namespace simty::metrics {

/// Linear-bucket histogram over [0, upper); values beyond land in an
/// overflow bucket. Exact count/sum/min/max are kept alongside.
class Histogram {
 public:
  /// `buckets` linear buckets spanning [0, upper).
  Histogram(double upper, std::size_t buckets);

  void add(double value);

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double mean() const;
  double min() const { return min_; }
  double max() const { return max_; }
  std::uint64_t overflow() const { return overflow_; }

  /// Quantile in [0, 1] by linear interpolation inside the bucket;
  /// overflow resolves to the observed max. Throws when empty.
  double quantile(double q) const;

  /// Folds another histogram into this one. Both must have identical
  /// geometry (same upper bound and bucket count); bucket counts, overflow,
  /// count/sum/min/max all combine exactly, so merging per-shard sketches
  /// in any fixed order reproduces the single-pass sketch bit-for-bit —
  /// the property the fleet aggregation layer's merge tree relies on.
  void merge(const Histogram& other);

  /// Bucket counts (for rendering).
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }
  double bucket_width() const { return width_; }

  /// Compact ASCII sparkline-style rendering, e.g. for bench output.
  std::string render(int max_width = 40) const;

  /// State fields, in snapshot order. Geometry is config, contents are
  /// state: a restore requires the saved upper bound and bucket count to
  /// equal this histogram's.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("upper", snapshot::same(self.upper_));
    f("buckets", snapshot::fixed(self.buckets_));
    f("overflow", self.overflow_);
    f("count", self.count_);
    f("sum", self.sum_);
    f("min", self.min_);
    f("max", self.max_);
  }

 private:
  double upper_;
  double width_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t overflow_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace simty::metrics
