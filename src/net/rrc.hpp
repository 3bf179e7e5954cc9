#pragma once
// 3G RRC radio state machine (IDLE / FACH / DCH).
//
// Table 2's handset carries a WCDMA radio; the references the paper builds
// on ([8], [12]) work in this regime, where the dominant cost is not the
// transfer but the state machine: any data promotes the radio to DCH
// (high power, with a costly signaling exchange), and inactivity timers
// demote it DCH -> FACH -> IDLE tens of seconds later. Aligning syncs means
// sharing one promotion and one demotion tail — cellular standby is where
// alarm alignment pays the most.
//
// The machine publishes the cellular rail on the PowerBus; app tasks drive
// it via data_activity() from their delivery handlers.

#include <array>
#include <cstdint>
#include <functional>
#include <optional>

#include "common/time.hpp"
#include "common/units.hpp"
#include "hw/power_bus.hpp"
#include "sim/simulator.hpp"

namespace simty::snapshot {
class Writer;
class SectionReader;
}  // namespace simty::snapshot

namespace simty::net {

/// Radio resource control states.
enum class RrcState : std::uint8_t { kIdle = 0, kFach, kDch };

const char* to_string(RrcState s);

/// Powers, inactivity timers, and promotion costs (typical WCDMA values).
struct RrcConfig {
  Power dch = Power::milliwatts(800.0);
  Power fach = Power::milliwatts(460.0);
  // IDLE paging draw sits inside the device's sleep floor: rail reads 0.

  Duration dch_to_fach = Duration::seconds(5);   // T1 inactivity
  Duration fach_to_idle = Duration::seconds(12); // T2 inactivity

  /// Signaling cost of an IDLE -> DCH promotion.
  Energy idle_promotion = Energy::millijoules(600.0);

  /// Cheaper FACH -> DCH promotion.
  Energy fach_promotion = Energy::millijoules(250.0);
};

/// Event-driven RRC machine; single radio per device.
class RrcMachine {
 public:
  RrcMachine(sim::Simulator& sim, RrcConfig config, hw::PowerBus& bus);

  RrcMachine(const RrcMachine&) = delete;
  RrcMachine& operator=(const RrcMachine&) = delete;

  /// The radio moves data for `duration` starting now: promotes to DCH
  /// (paying the promotion cost from the current state) and resets the
  /// inactivity timers. Overlapping activity extends the busy window.
  void data_activity(Duration duration);

  RrcState state() const { return state_; }

  /// Observer invoked after every state transition (promotions and timer
  /// demotions alike) with the new state. The DRX pager uses it to gate the
  /// wake-up receiver's listen rail to IDLE periods. Wiring, not state: it
  /// is NOT serialized, and restore() does not fire it — restored observers
  /// re-derive their view from their own restored state.
  void set_state_observer(std::function<void(RrcState)> observer);

  std::uint64_t idle_promotions() const { return idle_promotions_; }
  std::uint64_t fach_promotions() const { return fach_promotions_; }

  /// Accumulated time per state (finalize() flushes the open span).
  Duration time_in(RrcState s) const;
  void finalize(TimePoint now);

  /// Restores the snapshot's state, rebinds the demotion stage matching it
  /// and re-announces the current rail on the bus.
  void restore(snapshot::SectionReader& s);

  /// State fields, in snapshot order: the radio state, busy window,
  /// pending demotion timer and counters.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("state", self.state_);
    f("state_since", self.state_since_);
    f("busy_until", self.busy_until_);
    f("demotion_event", self.demotion_event_);
    f("idle_promotions", self.idle_promotions_);
    f("fach_promotions", self.fach_promotions_);
    f("time_in", self.time_in_);
  }

 private:
  void enter(RrcState next);
  void arm_demotion();
  void demote_to_fach();
  void demote_to_idle();

  sim::Simulator& sim_;
  RrcConfig config_;
  hw::PowerBus& bus_;

  std::function<void(RrcState)> state_observer_;
  RrcState state_ = RrcState::kIdle;
  TimePoint state_since_;
  TimePoint busy_until_;
  std::optional<sim::EventId> demotion_event_;
  std::uint64_t idle_promotions_ = 0;
  std::uint64_t fach_promotions_ = 0;
  std::array<Duration, 3> time_in_{};
};

}  // namespace simty::net
