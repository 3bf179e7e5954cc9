#include "alarm/doze.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "snapshot/codec.hpp"

namespace simty::alarm {

DozeController::DozeController(sim::Simulator& sim, AlarmManager& manager,
                               hw::Device& device, Config config)
    : sim_(sim), manager_(manager), device_(device), config_(std::move(config)) {
  SIMTY_CHECK_MSG(config_.idle_threshold > Duration::zero(),
                  "doze idle threshold must be positive");
  SIMTY_CHECK_MSG(!config_.window_schedule.empty(),
                  "doze needs at least one maintenance interval");
  for (const Duration d : config_.window_schedule) {
    SIMTY_CHECK_MSG(d > Duration::zero(), "maintenance intervals must be positive");
  }
}

void DozeController::enable() {
  SIMTY_CHECK_MSG(!enabled_, "doze already enabled");
  enabled_ = true;
  manager_.set_delivery_gate([this](TimePoint proposed) { return gate(proposed); });
  // External interaction exits doze; RTC wakeups (the maintenance windows
  // themselves) do not.
  device_.add_wake_listener([this](hw::WakeReason reason) {
    if (reason != hw::WakeReason::kRtcAlarm && dozing_) exit_doze();
  });
  arm_idle_timer();
}

TimePoint DozeController::gate(TimePoint proposed) {
  if (!dozing_) return proposed;
  const TimePoint now = sim_.now();
  if (now >= next_window_) {
    // We are inside (or past) the maintenance moment: everything due has
    // just been delivered; the next wakeup moves to the next window, with
    // the spacing escalating through the schedule.
    ++maintenance_windows_;
    if (schedule_index_ + 1 < config_.window_schedule.size()) ++schedule_index_;
    next_window_ = now + config_.window_schedule[schedule_index_];
  }
  return std::max(proposed, next_window_);
}

void DozeController::enter_doze() {
  dozing_ = true;
  ++doze_entries_;
  schedule_index_ = 0;
  next_window_ = sim_.now() + config_.window_schedule[0];
  // Force an RTC reprogram through the freshly-active gate.
  manager_.set_delivery_gate([this](TimePoint proposed) { return gate(proposed); });
}

void DozeController::exit_doze() {
  dozing_ = false;
  manager_.set_delivery_gate([this](TimePoint proposed) { return gate(proposed); });
  arm_idle_timer();
}

void DozeController::restore(snapshot::SectionReader& s) {
  // Any ctor-path idle timer died with the event-queue restore; the
  // snapshot's pending timer, if one was armed, replaces it.
  snapshot::read_fields(s, *this);
  SIMTY_CHECK_MSG(schedule_index_ < config_.window_schedule.size(),
                  "DozeController::restore: schedule index out of range");
  if (idle_timer_) {
    sim_.rebind(*idle_timer_, [this] {
      idle_timer_.reset();
      if (!dozing_) enter_doze();
    });
  }
}

void DozeController::arm_idle_timer() {
  if (idle_timer_) {
    sim_.cancel(*idle_timer_);
    idle_timer_.reset();
  }
  idle_timer_ = sim_.schedule_at(
      sim_.now() + config_.idle_threshold,
      [this] {
        idle_timer_.reset();
        if (!dozing_) enter_doze();
      },
      sim::EventPriority::kObserver, "doze-idle-timer");
}

}  // namespace simty::alarm
