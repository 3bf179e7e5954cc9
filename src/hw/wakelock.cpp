#include "hw/wakelock.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "snapshot/codec.hpp"
#include "trace/tracer.hpp"

namespace simty::hw {

WakelockManager::WakelockManager(sim::Simulator& sim, const PowerModel& model,
                                 PowerBus& bus)
    : sim_(sim), model_(model), bus_(bus), held_(sim.arena()) {}

WakelockId WakelockManager::acquire(Component c) {
  const auto idx = static_cast<std::size_t>(c);
  const TimePoint now = sim_.now();
  const WakelockId id{next_id_++};
  held_.push_back(Held{id, c});
  ++rails_[idx].usage.acquisitions;
  if (counts_[idx]++ == 0) {
    const ComponentPower& p = model_.component(c);
    if (rails_[idx].tail_event) {
      // Warm start: the radio is still up in its tail — no activation cost.
      sim_.cancel(*rails_[idx].tail_event);
      rails_[idx].tail_event.reset();
      rails_[idx].usage.tail_time += now - rails_[idx].tail_since;
      ++rails_[idx].usage.warm_starts;
      bus_.publish_component_power(now, c, true, p.active);
      SIMTY_TRACE_INSTANT(now, trace::TraceCategory::kHw, "component-warm-start",
                          static_cast<std::int64_t>(idx));
    } else {
      // Cold start: pay activation, count a cycle.
      ++rails_[idx].usage.cycles;
      bus_.publish_impulse(now, p.activation, ImpulseKind::kComponentActivation,
                           to_string(c));
      bus_.publish_component_power(now, c, true, p.active);
      SIMTY_TRACE_INSTANT(now, trace::TraceCategory::kHw, "component-cold-start",
                          static_cast<std::int64_t>(idx));
    }
    rails_[idx].on_since = now;
  }
  return id;
}

void WakelockManager::release(WakelockId id) {
  const auto it = std::find_if(held_.begin(), held_.end(),
                               [&](const Held& h) { return h.id == id; });
  SIMTY_CHECK_MSG(it != held_.end(), "WakelockManager::release: unknown lock");
  const TimePoint now = sim_.now();
  const Component c = it->component;
  const auto idx = static_cast<std::size_t>(c);
  held_.erase(it);

  SIMTY_CHECK(counts_[idx] > 0);
  if (--counts_[idx] == 0) {
    rails_[idx].usage.on_time += now - rails_[idx].on_since;
    const Duration tail = model_.component(c).tail;
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
    rails_[idx].tail_since = now;
    bus_.publish_component_power(now, c, true, model_.component(c).tail_power);
    rails_[idx].tail_event = sim_.schedule_at(
        now + tail, [this, idx] { end_tail(idx); }, sim::EventPriority::kHardware,
        "wakelock-tail-end");
  }
}

void WakelockManager::end_tail(std::size_t idx) {
  rails_[idx].tail_event.reset();
  rails_[idx].usage.tail_time += sim_.now() - rails_[idx].tail_since;
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
  return rails_[static_cast<std::size_t>(c)].tail_event.has_value();
}

const ComponentUsage& WakelockManager::usage(Component c) const {
  return rails_[static_cast<std::size_t>(c)].usage;
}

void WakelockManager::save(snapshot::Writer& w) const {
  SIMTY_CHECK_MSG(held_.empty(), "WakelockManager::save: locks still held");
  snapshot::write_fields(w, *this);
}

void WakelockManager::restore(snapshot::SectionReader& s) {
  held_.clear();
  counts_.fill(0);
  snapshot::read_fields(s, *this);
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    if (rails_[i].tail_event) {
      sim_.rebind(*rails_[i].tail_event, [this, i] { end_tail(i); });
    }
  }
}

void WakelockManager::finalize(TimePoint now) {
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    if (counts_[i] > 0) {
      rails_[i].usage.on_time += now - rails_[i].on_since;
      rails_[i].on_since = now;
    } else if (rails_[i].tail_event) {
      rails_[i].usage.tail_time += now - rails_[i].tail_since;
      rails_[i].tail_since = now;
    }
  }
}

}  // namespace simty::hw
