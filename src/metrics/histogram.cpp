#include "metrics/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/strings.hpp"

namespace simty::metrics {

Histogram::Histogram(double upper, std::size_t buckets)
    : upper_(upper), width_(upper / static_cast<double>(buckets)),
      buckets_(buckets, 0) {
  SIMTY_CHECK_MSG(upper > 0.0, "histogram upper bound must be positive");
  SIMTY_CHECK_MSG(buckets > 0, "histogram needs at least one bucket");
}

void Histogram::add(double value) {
  SIMTY_CHECK_MSG(value >= 0.0, "histogram values must be non-negative");
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  if (value >= upper_) {
    ++overflow_;
    return;
  }
  const auto idx = static_cast<std::size_t>(value / width_);
  ++buckets_[std::min(idx, buckets_.size() - 1)];
}

void Histogram::merge(const Histogram& other) {
  SIMTY_CHECK_MSG(buckets_.size() == other.buckets_.size() && upper_ == other.upper_,
                  "histogram merge requires identical geometry");
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  overflow_ += other.overflow_;
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::quantile(double q) const {
  SIMTY_CHECK_MSG(!empty(), "quantile of an empty histogram");
  SIMTY_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  const double target = q * static_cast<double>(count_);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const double next = cumulative + static_cast<double>(buckets_[i]);
    if (next >= target && buckets_[i] > 0) {
      // Linear interpolation within the bucket.
      const double inside = (target - cumulative) / static_cast<double>(buckets_[i]);
      const double lo = static_cast<double>(i) * width_;
      return std::min(lo + inside * width_, max_);
    }
    cumulative = next;
  }
  return max_;  // target falls into the overflow bucket
}

std::string Histogram::render(int max_width) const {
  std::uint64_t peak = overflow_;
  for (const std::uint64_t b : buckets_) peak = std::max(peak, b);
  if (peak == 0) return "(empty)\n";
  std::string out;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const auto bar = static_cast<int>(std::llround(
        static_cast<double>(buckets_[i]) / static_cast<double>(peak) * max_width));
    out += str_format("[%6.3f, %6.3f) %6llu |%s\n", static_cast<double>(i) * width_,
                      static_cast<double>(i + 1) * width_,
                      static_cast<unsigned long long>(buckets_[i]),
                      std::string(static_cast<std::size_t>(bar), '#').c_str());
  }
  if (overflow_ > 0) {
    out += str_format("[%6.3f,    inf) %6llu\n", upper_,
                      static_cast<unsigned long long>(overflow_));
  }
  return out;
}

}  // namespace simty::metrics
