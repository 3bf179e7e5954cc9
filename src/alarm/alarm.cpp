#include "alarm/alarm.hpp"

#include "common/check.hpp"
#include "common/strings.hpp"
#include "snapshot/codec.hpp"

namespace simty::alarm {

const char* to_string(AlarmKind k) {
  switch (k) {
    case AlarmKind::kWakeup: return "wakeup";
    case AlarmKind::kNonWakeup: return "non-wakeup";
  }
  return "?";
}

const char* to_string(RepeatMode m) {
  switch (m) {
    case RepeatMode::kOneShot: return "one-shot";
    case RepeatMode::kStatic: return "static";
    case RepeatMode::kDynamic: return "dynamic";
  }
  return "?";
}

AlarmSpec AlarmSpec::repeating(std::string tag, AppId app, RepeatMode mode,
                               Duration repeat, double alpha, double beta) {
  SIMTY_CHECK_MSG(mode != RepeatMode::kOneShot,
                  "AlarmSpec::repeating: use one_shot() for one-shot alarms");
  AlarmSpec s;
  s.tag = std::move(tag);
  s.app = app;
  s.mode = mode;
  s.repeat_interval = repeat;
  s.window_length = repeat * alpha;
  s.grace_length = repeat * beta;
  s.validate();
  return s;
}

AlarmSpec AlarmSpec::one_shot(std::string tag, AppId app, Duration window) {
  AlarmSpec s;
  s.tag = std::move(tag);
  s.app = app;
  s.mode = RepeatMode::kOneShot;
  s.window_length = window;
  s.grace_length = window;  // one-shot alarms are perceptible: grace unused
  s.validate();
  return s;
}

void AlarmSpec::validate() const {
  SIMTY_CHECK_MSG(!tag.empty(), "alarm tag must not be empty");
  SIMTY_CHECK_MSG(!window_length.is_negative(), "window length must be >= 0");
  SIMTY_CHECK_MSG(grace_length >= window_length,
                  "grace interval must be no smaller than the window (§3.1.2)");
  if (mode == RepeatMode::kOneShot) {
    SIMTY_CHECK_MSG(repeat_interval.is_zero(),
                    "one-shot alarms have zero repeating interval");
  } else {
    SIMTY_CHECK_MSG(repeat_interval > Duration::zero(),
                    "repeating alarms need a positive repeating interval");
    SIMTY_CHECK_MSG(window_length < repeat_interval,
                    "window must be smaller than the repeating interval");
    SIMTY_CHECK_MSG(grace_length < repeat_interval,
                    "grace must be smaller than the repeating interval (§3.1.2)");
  }
}

Alarm::Alarm(AlarmId id, AlarmSpec spec, TimePoint nominal)
    : id_(id), spec_(std::move(spec)), nominal_(nominal) {
  spec_.validate();
  update_perceptibility();
}

TimeInterval Alarm::window_interval() const {
  return TimeInterval::from_length(nominal_, spec_.window_length);
}

TimeInterval Alarm::grace_interval() const {
  // Perceptible alarms must be delivered within their window regardless of
  // grace; exposing grace == window for them keeps entry attributes simple.
  if (perceptible()) return window_interval();
  return TimeInterval::from_length(nominal_, spec_.grace_length);
}

void Alarm::update_perceptibility() {
  perceptible_ = spec_.mode == RepeatMode::kOneShot || !hardware_known_ ||
                 hardware_.any_perceptible();
}

void Alarm::reschedule(TimePoint nominal) { nominal_ = nominal; }

void Alarm::set_grace_length(Duration grace) {
  spec_.grace_length = grace;
  spec_.validate();
}

Alarm Alarm::restore(snapshot::SectionReader& s) {
  Alarm alarm;
  snapshot::read_fields(s, alarm);
  alarm.spec_.validate();
  SIMTY_CHECK_MSG(alarm.hardware_known_ || alarm.hardware_.empty(),
                  "Alarm::restore: hardware recorded before first delivery");
  SIMTY_CHECK_MSG(!alarm.expected_hold_.is_negative(),
                  "Alarm::restore: negative expected hold");
  alarm.update_perceptibility();
  return alarm;
}

void Alarm::record_delivery(hw::ComponentSet used, Duration hold) {
  SIMTY_CHECK(!hold.is_negative());
  ++delivery_count_;
  hardware_ = used;
  hardware_known_ = true;
  update_perceptibility();
  if (expected_hold_.is_zero()) {
    expected_hold_ = hold;
  } else {
    // Exponential moving average, biased to recent behaviour.
    expected_hold_ = Duration::micros(
        (expected_hold_.us() * 3 + hold.us()) / 4);
  }
}

std::string Alarm::to_string() const {
  return str_format("%s[%s %s rein=%s nominal=%.3fs hw=%s]", spec_.tag.c_str(),
                    alarm::to_string(spec_.kind), alarm::to_string(spec_.mode),
                    spec_.repeat_interval.to_string().c_str(), nominal_.seconds_f(),
                    hardware_.to_string().c_str());
}

}  // namespace simty::alarm
