#include "power/energy_accounting.hpp"

#include "common/check.hpp"
#include "snapshot/codec.hpp"

namespace simty::power {

Energy EnergyBreakdown::awake_total() const {
  return waking + awake_base + wake_transitions + component_active +
         component_activation;
}

Energy EnergyBreakdown::total() const { return sleep + awake_total(); }

void EnergyAccountant::on_device_state(TimePoint t, hw::DeviceState state,
                                       Power base_level) {
  if (device_seen_) accumulate_device(t);
  device_state_ = state;
  device_level_ = base_level;
  device_since_ = t;
  device_seen_ = true;
}

void EnergyAccountant::on_component_power(TimePoint t, hw::Component c, bool on,
                                          Power level) {
  const auto idx = static_cast<std::size_t>(c);
  ComponentRail& rail = rails_[idx];
  if (rail.on) accumulate_component(idx, t);
  rail.on = on;
  rail.level = level;
  rail.since = t;
}

void EnergyAccountant::on_impulse(TimePoint, Energy e, hw::ImpulseKind kind,
                                  std::string_view tag) {
  switch (kind) {
    case hw::ImpulseKind::kWakeTransition:
      breakdown_.wake_transitions += e;
      break;
    case hw::ImpulseKind::kComponentActivation: {
      breakdown_.component_activation += e;
      // Attribute to the component by its tag (the bus publishes the
      // component name).
      for (int i = 0; i < hw::kComponentCount; ++i) {
        const auto c = static_cast<hw::Component>(i);
        if (tag == hw::to_string(c)) {
          breakdown_.per_component[static_cast<std::size_t>(c)] += e;
          break;
        }
      }
      break;
    }
  }
}

void EnergyAccountant::finalize(TimePoint now) {
  if (device_seen_) accumulate_device(now);
  device_since_ = now;
  for (std::size_t i = 0; i < rails_.size(); ++i) {
    if (rails_[i].on) {
      accumulate_component(i, now);
      rails_[i].since = now;
    }
  }
  finalized_at_ = now;
  finalized_ = true;
}

Power EnergyAccountant::average_power() const {
  SIMTY_CHECK_MSG(finalized_, "average_power requires finalize()");
  const double seconds = (finalized_at_ - TimePoint::origin()).seconds_f();
  SIMTY_CHECK_MSG(seconds > 0.0, "average_power over an empty run");
  return Power::milliwatts(breakdown_.total().mj() / seconds);
}

void EnergyAccountant::accumulate_device(TimePoint until) {
  SIMTY_CHECK(until >= device_since_);
  const Energy e = device_level_ * (until - device_since_);
  switch (device_state_) {
    case hw::DeviceState::kAsleep: breakdown_.sleep += e; break;
    case hw::DeviceState::kWaking: breakdown_.waking += e; break;
    case hw::DeviceState::kAwake: breakdown_.awake_base += e; break;
  }
}

void EnergyAccountant::accumulate_component(std::size_t idx, TimePoint until) {
  ComponentRail& rail = rails_[idx];
  SIMTY_CHECK(until >= rail.since);
  const Energy e = rail.level * (until - rail.since);
  breakdown_.component_active += e;
  breakdown_.per_component[idx] += e;
}

void EnergyAccountant::save(snapshot::Writer& w) const {
  SIMTY_CHECK_MSG(!finalized_, "EnergyAccountant::save: already finalized");
  snapshot::write_fields(w, *this);
}

void EnergyAccountant::restore(snapshot::SectionReader& s) {
  snapshot::read_fields(s, *this);
  finalized_ = false;
}

}  // namespace simty::power
