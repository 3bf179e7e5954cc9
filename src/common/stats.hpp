#pragma once
// Streaming statistics (Welford's algorithm) for experiment repetitions:
// the paper reports averages over three runs; we additionally expose
// standard deviations and confidence half-widths so EXPERIMENTS.md can
// state how stable each reproduced number is.

#include <cstdint>
#include <string>

namespace simty {

/// Numerically stable online mean/variance accumulator.
class OnlineStats {
 public:
  void add(double x);

  std::uint64_t count() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Mean of the samples (0 when empty).
  double mean() const;

  /// Unbiased sample variance (0 with fewer than 2 samples).
  double variance() const;

  /// Sample standard deviation.
  double stddev() const;

  double min() const { return min_; }
  double max() const { return max_; }

  /// Half-width of an approximate 95% confidence interval for the mean
  /// (normal approximation; 0 with fewer than 2 samples).
  double ci95_halfwidth() const;

  /// Merges another accumulator into this one (parallel Welford).
  void merge(const OnlineStats& other);

  /// "mean ± hw" rendering with the given precision.
  std::string to_string(int decimals = 2) const;

  /// Exact internal state, for snapshot/restore: restoring is bit-exact,
  /// the doubles travel untouched.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("n", self.n_);
    f("mean", self.mean_);
    f("m2", self.m2_);
    f("min", self.min_);
    f("max", self.max_);
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace simty
