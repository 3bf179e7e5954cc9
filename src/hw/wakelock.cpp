#include "hw/wakelock.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/tracer.hpp"

namespace simty::hw {

WakelockManager::WakelockManager(sim::Simulator& sim, const PowerModel& model,
                                 PowerBus& bus)
    : sim_(sim), model_(model), bus_(bus), held_(sim.arena()) {}

Duration WakelockManager::effective_tail(Component c) const {
  const auto idx = static_cast<std::size_t>(c);
  return tail_override_[idx].value_or(model_.component(c).tail);
}

WakelockId WakelockManager::acquire(Component c, std::string_view holder) {
  const auto idx = static_cast<std::size_t>(c);
  const TimePoint now = sim_.now();
  const WakelockId id{next_id_++};
  held_.push_back(Held{id, c, holder, now});
  ++usage_[idx].acquisitions;
  if (counts_[idx]++ == 0) {
    const ComponentPower& p = model_.component(c);
    if (tail_event_[idx]) {
      // Warm start: the radio is still up in its tail — no activation cost.
      sim_.cancel(*tail_event_[idx]);
      tail_event_[idx].reset();
      usage_[idx].tail_time += now - tail_since_[idx];
      ++usage_[idx].warm_starts;
      bus_.publish_component_power(now, c, true, p.active);
      SIMTY_TRACE_INSTANT(now, trace::TraceCategory::kHw, "component-warm-start",
                          static_cast<std::int64_t>(idx));
    } else {
      // Cold start: pay activation, count a cycle.
      ++usage_[idx].cycles;
      bus_.publish_impulse(now, p.activation, ImpulseKind::kComponentActivation,
                           to_string(c));
      bus_.publish_component_power(now, c, true, p.active);
      SIMTY_TRACE_INSTANT(now, trace::TraceCategory::kHw, "component-cold-start",
                          static_cast<std::int64_t>(idx));
    }
    on_since_[idx] = now;
  }
  return id;
}

bool WakelockManager::try_release(WakelockId id) {
  const auto it = std::find_if(held_.begin(), held_.end(),
                               [&](const Held& h) { return h.id == id; });
  if (it == held_.end()) return false;
  release(id);
  return true;
}

std::vector<WakelockManager::HeldInfo> WakelockManager::held_locks() const {
  std::vector<HeldInfo> out;
  out.reserve(held_.size());
  for (const Held& h : held_) {
    out.push_back(HeldInfo{h.id, h.component, std::string(h.holder), h.acquired_at});
  }
  return out;
}

void WakelockManager::release(WakelockId id) {
  const auto it = std::find_if(held_.begin(), held_.end(),
                               [&](const Held& h) { return h.id == id; });
  SIMTY_CHECK_MSG(it != held_.end(), "WakelockManager::release: unknown lock");
  const TimePoint now = sim_.now();
  const Component c = it->component;
  const auto idx = static_cast<std::size_t>(c);

  const Duration held_for = now - it->acquired_at;
  if (!watchdog_threshold_.is_zero() && held_for > watchdog_threshold_) {
    anomalies_.push_back(
        WakelockAnomaly{c, std::string(it->holder), it->acquired_at, held_for, false});
  }
  held_.erase(it);

  SIMTY_CHECK(counts_[idx] > 0);
  if (--counts_[idx] == 0) {
    usage_[idx].on_time += now - on_since_[idx];
    const Duration tail = effective_tail(c);
    if (tail.is_zero()) {
      bus_.publish_component_power(now, c, false, Power::zero());
      SIMTY_TRACE_INSTANT(now, trace::TraceCategory::kHw, "component-off",
                          static_cast<std::int64_t>(idx));
      return;
    }
    // Enter the tail: lingering high-power state until the timer fires or
    // a warm re-acquisition cancels it.
    SIMTY_TRACE_INSTANT(now, trace::TraceCategory::kHw, "component-tail",
                        static_cast<std::int64_t>(idx));
    tail_since_[idx] = now;
    bus_.publish_component_power(now, c, true, model_.component(c).tail_power);
    tail_event_[idx] = sim_.schedule_at(
        now + tail, [this, idx] { end_tail(idx); }, sim::EventPriority::kHardware,
        "wakelock-tail-end");
  }
}

void WakelockManager::end_tail(std::size_t idx) {
  tail_event_[idx].reset();
  usage_[idx].tail_time += sim_.now() - tail_since_[idx];
  bus_.publish_component_power(sim_.now(), static_cast<Component>(idx), false,
                               Power::zero());
  SIMTY_TRACE_INSTANT(sim_.now(), trace::TraceCategory::kHw, "component-off",
                      static_cast<std::int64_t>(idx));
}

bool WakelockManager::is_on(Component c) const {
  return counts_[static_cast<std::size_t>(c)] > 0;
}

int WakelockManager::lock_count(Component c) const {
  return counts_[static_cast<std::size_t>(c)];
}

bool WakelockManager::in_tail(Component c) const {
  return tail_event_[static_cast<std::size_t>(c)].has_value();
}

void WakelockManager::set_fast_dormancy(Component c, Duration truncated) {
  SIMTY_CHECK_MSG(!truncated.is_negative(), "fast-dormancy tail must be >= 0");
  tail_override_[static_cast<std::size_t>(c)] = truncated;
}

const ComponentUsage& WakelockManager::usage(Component c) const {
  return usage_[static_cast<std::size_t>(c)];
}

std::size_t WakelockManager::audit(TimePoint now) {
  if (watchdog_threshold_.is_zero()) return 0;
  std::size_t found = 0;
  for (const Held& h : held_) {
    const Duration held_for = now - h.acquired_at;
    if (held_for > watchdog_threshold_) {
      anomalies_.push_back(
          WakelockAnomaly{h.component, std::string(h.holder), h.acquired_at, held_for,
                          true});
      ++found;
    }
  }
  return found;
}

void WakelockManager::save(snapshot::Writer& w) const {
  SIMTY_CHECK_MSG(held_.empty(), "WakelockManager::save: locks still held");
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    w.i64(on_since_[i].us());
    w.i64(tail_since_[i].us());
    w.u64(tail_event_[i] ? tail_event_[i]->value : 0);
    w.boolean(tail_override_[i].has_value());
    w.i64(tail_override_[i].value_or(Duration::zero()).us());
    w.u64(usage_[i].cycles);
    w.u64(usage_[i].acquisitions);
    w.u64(usage_[i].warm_starts);
    w.i64(usage_[i].on_time.us());
    w.i64(usage_[i].tail_time.us());
  }
  w.u64(anomalies_.size());
  for (const WakelockAnomaly& a : anomalies_) {
    w.u8(static_cast<std::uint8_t>(a.component));
    w.str(a.holder);
    w.i64(a.acquired_at.us());
    w.i64(a.held_for.us());
    w.boolean(a.still_held);
  }
  w.i64(watchdog_threshold_.us());
  w.u64(next_id_);
}

void WakelockManager::restore(snapshot::SectionReader& s) {
  held_.clear();
  counts_.fill(0);
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    on_since_[i] = TimePoint::from_us(s.i64());
    tail_since_[i] = TimePoint::from_us(s.i64());
    const std::uint64_t tail_id = s.u64();
    tail_event_[i].reset();
    const bool has_override = s.boolean();
    const Duration override_tail = Duration::micros(s.i64());
    tail_override_[i] =
        has_override ? std::optional<Duration>(override_tail) : std::nullopt;
    usage_[i].cycles = s.u64();
    usage_[i].acquisitions = s.u64();
    usage_[i].warm_starts = s.u64();
    usage_[i].on_time = Duration::micros(s.i64());
    usage_[i].tail_time = Duration::micros(s.i64());
    if (tail_id != 0) {
      tail_event_[i] = sim::EventId{tail_id};
      sim_.rebind(*tail_event_[i], [this, i] { end_tail(i); });
    }
  }
  const std::uint64_t anomaly_count = s.u64();
  s.check_count(anomaly_count, 2 + 9 + 3 * 9 + 2);
  anomalies_.clear();
  anomalies_.reserve(anomaly_count);
  for (std::uint64_t i = 0; i < anomaly_count; ++i) {
    WakelockAnomaly a;
    const std::uint8_t component = s.u8();
    SIMTY_CHECK_MSG(component < kComponentCount,
                    "WakelockManager::restore: component out of range");
    a.component = static_cast<Component>(component);
    a.holder = s.str();
    a.acquired_at = TimePoint::from_us(s.i64());
    a.held_for = Duration::micros(s.i64());
    a.still_held = s.boolean();
    anomalies_.push_back(std::move(a));
  }
  watchdog_threshold_ = Duration::micros(s.i64());
  next_id_ = s.u64();
}

void WakelockManager::finalize(TimePoint now) {
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    if (counts_[i] > 0) {
      usage_[i].on_time += now - on_since_[i];
      on_since_[i] = now;
    } else if (tail_event_[i]) {
      usage_[i].tail_time += now - tail_since_[i];
      tail_since_[i] = now;
    }
  }
}

}  // namespace simty::hw
