#include "common/interval.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace simty {

TimeInterval TimeInterval::from_length(TimePoint start, Duration length) {
  if (length.is_negative()) {
    throw std::invalid_argument("TimeInterval::from_length: negative length");
  }
  return TimeInterval{start, start + length};
}

Duration TimeInterval::length() const {
  if (is_empty()) return Duration::zero();
  return end_ - start_;
}

bool TimeInterval::contains(TimePoint t) const {
  return !is_empty() && start_ <= t && t <= end_;
}

bool TimeInterval::overlaps(const TimeInterval& o) const {
  if (is_empty() || o.is_empty()) return false;
  return start_ <= o.end_ && o.start_ <= end_;
}

TimeInterval TimeInterval::intersect(const TimeInterval& o) const {
  if (!overlaps(o)) return empty();
  return TimeInterval{std::max(start_, o.start_), std::min(end_, o.end_)};
}

TimeInterval TimeInterval::shifted(Duration d) const {
  if (is_empty()) return *this;
  return TimeInterval{start_ + d, end_ + d};
}

bool TimeInterval::operator==(const TimeInterval& o) const {
  if (is_empty() && o.is_empty()) return true;
  return start_ == o.start_ && end_ == o.end_;
}

std::string TimeInterval::to_string() const {
  if (is_empty()) return "[empty]";
  char buf[96];
  std::snprintf(buf, sizeof buf, "[%.3fs, %.3fs]", start_.seconds_f(), end_.seconds_f());
  return buf;
}

}  // namespace simty
