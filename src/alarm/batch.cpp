#include "alarm/batch.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace simty::alarm {

Batch::Batch(Alarm* first, common::Arena* arena) : members_(arena) {
  SIMTY_CHECK(first != nullptr);
  add(first);
}

void Batch::reset(Alarm* first) {
  members_.clear();
  refresh();
  add(first);
}

void Batch::add(Alarm* a) {
  SIMTY_CHECK(a != nullptr);
  SIMTY_CHECK_MSG(!contains(a->id()), "alarm already in batch");
  members_.push_back(a);
  if (members_.size() == 1) {
    window_ = a->window_interval();
    grace_ = a->grace_interval();
  } else {
    window_ = window_.intersect(a->window_interval());
    grace_ = grace_.intersect(a->grace_interval());
  }
  hardware_ |= a->hardware();
  perceptible_ = perceptible_ || a->perceptible();
  expected_hold_ = std::max(expected_hold_, a->expected_hold());
}

bool Batch::remove(AlarmId id) {
  const auto it = std::find_if(members_.begin(), members_.end(),
                               [&](const Alarm* a) { return a->id() == id; });
  if (it == members_.end()) return false;
  members_.erase(it);
  refresh();
  return true;
}

bool Batch::contains(AlarmId id) const {
  return std::any_of(members_.begin(), members_.end(),
                     [&](const Alarm* a) { return a->id() == id; });
}

TimePoint Batch::delivery_time() const {
  SIMTY_CHECK_MSG(!members_.empty(), "delivery time of an empty batch");
  if (perceptible_) {
    SIMTY_CHECK_MSG(!window_.is_empty(),
                    "perceptible batch must have a non-empty window overlap");
    return window_.start();
  }
  SIMTY_CHECK_MSG(!grace_.is_empty(),
                  "batch must have a non-empty grace overlap");
  return grace_.start();
}

void Batch::refresh() {
  window_ = TimeInterval::empty();
  grace_ = TimeInterval::empty();
  hardware_ = hw::ComponentSet::none();
  perceptible_ = false;
  expected_hold_ = Duration::zero();
  bool first = true;
  for (const Alarm* a : members_) {
    if (first) {
      window_ = a->window_interval();
      grace_ = a->grace_interval();
      first = false;
    } else {
      window_ = window_.intersect(a->window_interval());
      grace_ = grace_.intersect(a->grace_interval());
    }
    hardware_ |= a->hardware();
    perceptible_ = perceptible_ || a->perceptible();
    expected_hold_ = std::max(expected_hold_, a->expected_hold());
  }
}

}  // namespace simty::alarm
