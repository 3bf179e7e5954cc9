#include "net/rrc.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "snapshot/codec.hpp"
#include "trace/tracer.hpp"

namespace simty::net {

const char* to_string(RrcState s) {
  switch (s) {
    case RrcState::kIdle: return "IDLE";
    case RrcState::kFach: return "FACH";
    case RrcState::kDch: return "DCH";
  }
  return "?";
}

RrcMachine::RrcMachine(sim::Simulator& sim, RrcConfig config, hw::PowerBus& bus)
    : sim_(sim), config_(config), bus_(bus), state_since_(sim.now()),
      busy_until_(sim.now()) {
  SIMTY_CHECK(config_.dch_to_fach > Duration::zero());
  SIMTY_CHECK(config_.fach_to_idle > Duration::zero());
}

void RrcMachine::data_activity(Duration duration) {
  SIMTY_CHECK_MSG(!duration.is_negative(), "activity duration must be >= 0");
  const TimePoint now = sim_.now();
  busy_until_ = std::max(busy_until_, now + duration);

  switch (state_) {
    case RrcState::kIdle:
      ++idle_promotions_;
      bus_.publish_impulse(now, config_.idle_promotion,
                           hw::ImpulseKind::kComponentActivation, "rrc-idle-dch");
      enter(RrcState::kDch);
      break;
    case RrcState::kFach:
      ++fach_promotions_;
      bus_.publish_impulse(now, config_.fach_promotion,
                           hw::ImpulseKind::kComponentActivation, "rrc-fach-dch");
      enter(RrcState::kDch);
      break;
    case RrcState::kDch:
      break;  // already up; timers just move out
  }
  arm_demotion();
}

void RrcMachine::set_state_observer(std::function<void(RrcState)> observer) {
  state_observer_ = std::move(observer);
}

void RrcMachine::enter(RrcState next) {
  const TimePoint now = sim_.now();
  time_in_[static_cast<std::size_t>(state_)] += now - state_since_;
  state_since_ = now;
  state_ = next;
  SIMTY_TRACE_INSTANT(now, trace::TraceCategory::kNet, "rrc-state",
                      static_cast<std::int64_t>(state_));
  switch (state_) {
    case RrcState::kDch:
      bus_.publish_component_power(now, hw::Component::kCellular, true, config_.dch);
      break;
    case RrcState::kFach:
      bus_.publish_component_power(now, hw::Component::kCellular, true, config_.fach);
      break;
    case RrcState::kIdle:
      bus_.publish_component_power(now, hw::Component::kCellular, false, Power::zero());
      break;
  }
  if (state_observer_) state_observer_(state_);
}

void RrcMachine::arm_demotion() {
  if (demotion_event_) {
    sim_.cancel(*demotion_event_);
    demotion_event_.reset();
  }
  demotion_event_ =
      sim_.schedule_at(busy_until_ + config_.dch_to_fach,
                       [this] { demote_to_fach(); },
                       sim::EventPriority::kHardware, "rrc-dch-fach");
}

void RrcMachine::demote_to_fach() {
  enter(RrcState::kFach);
  demotion_event_ =
      sim_.schedule_at(sim_.now() + config_.fach_to_idle,
                       [this] { demote_to_idle(); },
                       sim::EventPriority::kHardware, "rrc-fach-idle");
}

void RrcMachine::demote_to_idle() {
  demotion_event_.reset();
  enter(RrcState::kIdle);
}

void RrcMachine::restore(snapshot::SectionReader& s) {
  snapshot::read_fields(s, *this);
  if (demotion_event_) {
    SIMTY_CHECK_MSG(state_ != RrcState::kIdle,
                    "RrcMachine::restore: idle radio with a pending demotion");
    if (state_ == RrcState::kDch) {
      sim_.rebind(*demotion_event_, [this] { demote_to_fach(); });
    } else {
      sim_.rebind(*demotion_event_, [this] { demote_to_idle(); });
    }
  } else {
    SIMTY_CHECK_MSG(state_ == RrcState::kIdle,
                    "RrcMachine::restore: active radio without a demotion timer");
  }
  // Re-announce the current rail so a fresh listener stack starts from the
  // restored state rather than nothing.
  const TimePoint now = sim_.now();
  switch (state_) {
    case RrcState::kDch:
      bus_.publish_component_power(now, hw::Component::kCellular, true, config_.dch);
      break;
    case RrcState::kFach:
      bus_.publish_component_power(now, hw::Component::kCellular, true, config_.fach);
      break;
    case RrcState::kIdle:
      bus_.publish_component_power(now, hw::Component::kCellular, false,
                                   Power::zero());
      break;
  }
}

Duration RrcMachine::time_in(RrcState s) const {
  return time_in_[static_cast<std::size_t>(s)];
}

void RrcMachine::finalize(TimePoint now) {
  SIMTY_CHECK_MSG(now >= state_since_,
                  "RrcMachine::finalize: horizon before the open span start");
  time_in_[static_cast<std::size_t>(state_)] += now - state_since_;
  state_since_ = now;
}

}  // namespace simty::net
