#pragma once
// Real-time clock with a single programmable wake interrupt.
//
// Mirrors the Android/Linux RTC_WAKEUP contract the paper's AlarmManager
// sits on: the framework keeps exactly one next-wakeup deadline programmed
// (the head of the batch queue); reprogramming replaces it. When the
// interrupt fires the RTC wakes the platform and invokes the handler once
// the CPU is usable — i.e. one wake latency after the nominal instant.

#include <functional>
#include <optional>

#include "common/time.hpp"
#include "hw/device.hpp"
#include "sim/simulator.hpp"

namespace simty::snapshot {
class Writer;
class SectionReader;
}  // namespace simty::snapshot

namespace simty::hw {

/// Single-slot RTC wake interrupt.
class Rtc {
 public:
  Rtc(sim::Simulator& sim, Device& device);

  Rtc(const Rtc&) = delete;
  Rtc& operator=(const Rtc&) = delete;

  /// Programs the interrupt for `when` (>= now). Replaces any previously
  /// programmed deadline. `handler` runs when the CPU is awake and usable.
  void program(TimePoint when, std::function<void()> handler);

  /// Clears the programmed interrupt, if any.
  void clear();

  /// Deadline currently programmed, if any.
  std::optional<TimePoint> programmed() const {
    return programmed_ ? std::optional<TimePoint>(programmed_->deadline) : std::nullopt;
  }

  /// Interrupts fired so far.
  std::uint64_t fired_count() const { return fired_; }

  /// The snapshot carries the programmed deadline (if any) and counters.
  /// The handler is not serializable; restore() takes a fresh one from the
  /// owner (the alarm manager re-supplies its deliver-due closure).
  void restore(snapshot::SectionReader& s, std::function<void()> handler);

  /// State fields, in snapshot order.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("programmed", self.programmed_);
    f("fired", self.fired_);
  }

 private:
  // A programmed interrupt: its deadline and the event that raises it.
  struct Programmed {
    TimePoint deadline;
    sim::EventId event;

    template <typename Self, typename F>
    static void for_each_state_field(Self& self, F&& f) {
      f("deadline", self.deadline);
      f("event", self.event);
    }
  };

  void fire();

  sim::Simulator& sim_;
  Device& device_;
  std::optional<Programmed> programmed_;
  std::function<void()> handler_;
  std::uint64_t fired_ = 0;
};

}  // namespace simty::hw
