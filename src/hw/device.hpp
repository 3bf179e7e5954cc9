#pragma once
// Device CPU/platform state machine.
//
// Implements the "aggressive sleeping philosophy" (paper §2.1): the platform
// is asleep unless something explicitly wakes it, stays awake only while a
// CPU wakelock is held, and lingers briefly after the last lock drops before
// suspending again. Waking is not instantaneous — the RTC-interrupt-to-
// usable-CPU latency is what makes NATIVE deliver alpha = 0 alarms slightly
// late in the paper's Fig 4.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/time.hpp"
#include "hw/power_bus.hpp"
#include "hw/power_model.hpp"
#include "sim/simulator.hpp"

namespace simty::snapshot {
class Writer;
class SectionReader;
}  // namespace simty::snapshot

namespace simty::hw {

/// Why the platform was asked to wake up.
enum class WakeReason : std::uint8_t {
  kRtcAlarm = 0,   // real-time-clock interrupt for a wakeup alarm
  kExternalPush,   // incoming network message (GCM-style)
  kUserButton,     // user pressed the power button
};

const char* to_string(WakeReason r);

/// The simulated smartphone platform (CPU + rails), minus the wakelockable
/// peripherals which live in WakelockManager.
class Device {
 public:
  /// `sim`, `bus` must outlive the device.
  Device(sim::Simulator& sim, const PowerModel& model, PowerBus& bus);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  DeviceState state() const { return state_; }
  const PowerModel& power_model() const { return model_; }

  /// Requests the platform awake and runs `on_ready` the moment the CPU is
  /// usable: immediately if already awake, after the wake latency if asleep.
  /// The callback runs with NO cpu wakelock held — acquire one inside it if
  /// work follows.
  void request_awake(WakeReason reason, std::function<void()> on_ready);

  /// CPU wakelock: the device cannot suspend while the count is positive.
  /// Must be awake to acquire. Release of the last lock arms the idle-linger
  /// timer; suspension happens when it expires un-renewed.
  void acquire_cpu_lock();
  void release_cpu_lock();
  int cpu_lock_count() const { return cpu_locks_; }

  /// Listener invoked every time the device completes a wake transition
  /// (used by the alarm manager to flush pending non-wakeup alarms).
  void add_wake_listener(std::function<void(WakeReason)> listener);

  // --- statistics -----------------------------------------------------
  /// Completed asleep->awake transitions.
  std::uint64_t wakeup_count() const { return wakeup_count_; }
  std::uint64_t wakeups_for(WakeReason r) const;
  /// Accumulated fully-awake time (excludes the waking transition).
  Duration total_awake_time() const;
  Duration total_asleep_time() const;

  /// Flushes state-duration accounting up to `now` (call at end of run).
  void finalize(TimePoint now);

  /// True when the device holds no transient state a snapshot cannot carry:
  /// asleep, no CPU locks, no queued wake requesters, no in-flight wake or
  /// suspend event. Checkpoints are only taken at such instants.
  bool quiescent() const {
    return state_ == DeviceState::kAsleep && cpu_locks_ == 0 &&
           pending_ready_.empty() && !wake_event_ && !sleep_event_;
  }

  /// Serializes the FSM scalars and statistics; requires quiescent().
  /// Wake listeners are wiring, not state — the restore-side constructor
  /// re-registers them before restore() is called.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::SectionReader& s);

  /// State fields, in snapshot order.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("state", self.state_);
    f("state_since", self.state_since_);
    f("wake_reason", self.current_wake_reason_);
    f("wakeup_count", self.wakeup_count_);
    f("wakeups_by_reason", self.wakeups_by_reason_);
    f("time_in_state", self.time_in_state_);
  }

 private:
  void enter_state(DeviceState next);
  void arm_sleep_timer();
  void disarm_sleep_timer();
  void complete_wake();

  sim::Simulator& sim_;
  PowerModel model_;
  PowerBus& bus_;

  DeviceState state_ = DeviceState::kAsleep;
  TimePoint state_since_ = TimePoint::origin();
  int cpu_locks_ = 0;

  // Callbacks queued while a wake transition is in flight, and the buffer
  // complete_wake() runs them from.
  // Both live in the simulator's arena, as does the listener list.
  common::ArenaVector<std::pair<WakeReason, std::function<void()>>> pending_ready_;
  common::ArenaVector<std::pair<WakeReason, std::function<void()>>> ready_scratch_;
  std::optional<sim::EventId> wake_event_;
  std::optional<sim::EventId> sleep_event_;

  common::ArenaVector<std::function<void(WakeReason)>> wake_listeners_;
  WakeReason current_wake_reason_ = WakeReason::kRtcAlarm;

  std::uint64_t wakeup_count_ = 0;
  std::array<std::uint64_t, 3> wakeups_by_reason_{};
  std::array<Duration, 3> time_in_state_{};
};

}  // namespace simty::hw
