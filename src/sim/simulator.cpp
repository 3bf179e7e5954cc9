#include "sim/simulator.hpp"

#include "common/check.hpp"
#include "snapshot/codec.hpp"
#include "trace/tracer.hpp"

namespace simty::sim {

EventId Simulator::schedule_at(TimePoint when, EventFn cb, EventPriority priority,
                               const char* label) {
  SIMTY_CHECK_MSG(when >= now_, "Simulator::schedule_at: time in the past");
  return queue_.schedule(when, priority, std::move(cb), label);
}

EventId Simulator::schedule_after(Duration delay, EventFn cb,
                                  EventPriority priority, const char* label) {
  SIMTY_CHECK_MSG(!delay.is_negative(), "Simulator::schedule_after: negative delay");
  return queue_.schedule(now_ + delay, priority, std::move(cb), label);
}

bool Simulator::cancel(EventId id) { return queue_.cancel(id); }

void Simulator::run_until(TimePoint until) {
  SIMTY_CHECK_MSG(until >= now_, "Simulator::run_until: horizon in the past");
  while (!queue_.empty() && queue_.next_time() <= until) {
    step();
  }
  now_ = until;
}

void Simulator::run_all() {
  while (step()) {
  }
}

void Simulator::save(snapshot::Writer& w) const { snapshot::write_fields(w, *this); }

void Simulator::restore(snapshot::SectionReader& s) { snapshot::read_fields(s, *this); }

bool Simulator::step() {
  if (queue_.empty()) return false;
  EventQueue::Fired fired = queue_.pop();
  SIMTY_CHECK_MSG(fired.when >= now_, "Simulator: time went backwards");
  now_ = fired.when;
  ++events_processed_;
  // Callbacks never advance now_ (only step() does), so the span closes at
  // the fire time; nested sim activity shows up as the events it schedules.
  SIMTY_TRACE_SPAN_BEGIN(now_, trace::TraceCategory::kSim, fired.label,
                         static_cast<std::int64_t>(fired.priority));
  fired.callback();
  SIMTY_TRACE_SPAN_END(now_, trace::TraceCategory::kSim, fired.label,
                       static_cast<std::int64_t>(fired.priority));
  return true;
}

}  // namespace simty::sim
