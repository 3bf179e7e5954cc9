#pragma once
// Discrete-event simulator core: a virtual clock plus an event loop.
//
// The whole standby experiment runs inside one Simulator: the device model,
// the alarm manager, the resident apps, and the power monitor all schedule
// callbacks here. Single-threaded by design — determinism is what lets the
// paper's "three runs, averaged" protocol be exactly reproducible.

#include <cstdint>

#include "common/arena.hpp"
#include "common/time.hpp"
#include "sim/event_queue.hpp"

namespace simty::sim {

/// Event loop with a virtual microsecond clock.
class Simulator {
 public:
  Simulator() = default;

  /// Backs the event queue's storage with `arena` (see EventQueue): the
  /// arena must outlive the simulator and must not be reset while it lives.
  explicit Simulator(common::Arena* arena) : queue_(arena), arena_(arena) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time. Starts at the origin and only moves forward.
  TimePoint now() const { return now_; }

  /// Schedules `cb` at absolute time `when` (must be >= now()). `label`
  /// must outlive the event: pass a string literal, or intern_label() for
  /// a computed one.
  EventId schedule_at(TimePoint when, EventFn cb,
                      EventPriority priority = EventPriority::kFramework,
                      const char* label = "");

  /// Schedules `cb` after a non-negative delay from now().
  EventId schedule_after(Duration delay, EventFn cb,
                         EventPriority priority = EventPriority::kFramework,
                         const char* label = "");

  /// Cancels a pending event; false if it already ran or was cancelled.
  bool cancel(EventId id);

  /// Runs events with time <= `until`, then advances the clock to `until`
  /// even if the queue drains early (so end-of-run power integration covers
  /// the full horizon).
  void run_until(TimePoint until);

  /// Runs until the event queue is empty.
  void run_all();

  /// Runs exactly one event if any is pending; returns false on empty queue.
  bool step();

  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t events_processed() const { return events_processed_; }

  /// Serializes the clock, event counter, and the complete queue structure
  /// into the writer's open section (see EventQueue::save — callbacks are
  /// not serialized and must be rebind()-ed after restore()).
  void save(snapshot::Writer& w) const;

  /// Restores state written by save(), replacing any queue contents.
  void restore(snapshot::SectionReader& s);

  /// State fields, in snapshot order.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("now", self.now_);
    f("events_processed", self.events_processed_);
    f("queue", self.queue_);
  }

  /// Re-attaches the callback of a restored armed event.
  void rebind(EventId id, EventFn cb) { queue_.rebind(id, std::move(cb)); }

  /// True when every restored live event has been rebound.
  bool fully_bound() const { return queue_.fully_bound(); }

  /// The per-run arena (or nullptr): components built on this simulator
  /// carve their run-length buffers from it too.
  common::Arena* arena() const { return arena_; }

 private:
  TimePoint now_ = TimePoint::origin();
  EventQueue queue_;
  common::Arena* arena_ = nullptr;
  std::uint64_t events_processed_ = 0;
};

}  // namespace simty::sim
