#pragma once
// Hardware wakelock manager.
//
// Re-creates the Android hardware WakeLock surface the paper hooked for
// profiling: tasks acquire a named lock on a component while they use it;
// a component is powered (and pays its activation energy) only while at
// least one lock is held. On-cycle counts per component are exactly the
// numerators of the paper's Table 4.

#include <array>
#include <cstdint>
#include <optional>

#include "common/arena.hpp"
#include "common/time.hpp"
#include "hw/component.hpp"
#include "hw/power_bus.hpp"
#include "hw/power_model.hpp"
#include "sim/simulator.hpp"
#include "snapshot/codec.hpp"

namespace simty::hw {

/// Ticket returned by acquire(); pass back to release().
struct WakelockId {
  std::uint64_t value = 0;
  bool operator==(const WakelockId&) const = default;
};

/// Per-component usage statistics.
struct ComponentUsage {
  std::uint64_t cycles = 0;       // cold off->on transitions (Table 4 numerators)
  std::uint64_t acquisitions = 0; // individual locks taken
  std::uint64_t warm_starts = 0;  // re-acquisitions during the radio tail
  Duration on_time;               // accumulated actively-locked time
  Duration tail_time;             // accumulated tail-lingering time

  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("cycles", self.cycles);
    f("acquisitions", self.acquisitions);
    f("warm_starts", self.warm_starts);
    f("on_time", self.on_time);
    f("tail_time", self.tail_time);
  }
};

/// Reference-counted power gating for every wakelockable component.
class WakelockManager {
 public:
  WakelockManager(sim::Simulator& sim, const PowerModel& model, PowerBus& bus);

  WakelockManager(const WakelockManager&) = delete;
  WakelockManager& operator=(const WakelockManager&) = delete;

  /// Acquires a lock on `c`. The first lock on an unpowered component
  /// powers it and pays activation.
  WakelockId acquire(Component c);

  /// Releases a previously acquired lock; the last release powers the
  /// component down. Unknown/double release throws.
  void release(WakelockId id);

  bool is_on(Component c) const;
  int lock_count(Component c) const;

  /// True while the component lingers in its post-release tail.
  bool in_tail(Component c) const;

  const ComponentUsage& usage(Component c) const;

  /// Flushes on-time accounting for still-powered components up to `now`.
  void finalize(TimePoint now);

  /// Serializes counters, tail timers, and usage; requires that no lock is
  /// held (checkpoints happen at device-quiescent instants, but a radio
  /// tail may still be lingering — its timer event is carried and rebound).
  void save(snapshot::Writer& w) const;
  void restore(snapshot::SectionReader& s);

  /// State fields, in snapshot order.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("rails", self.rails_);
    f("next_id", self.next_id_);
  }

 private:
  struct Held {
    WakelockId id;
    Component component;
  };

  sim::Simulator& sim_;
  PowerModel model_;
  PowerBus& bus_;

  void end_tail(std::size_t idx);

  common::ArenaVector<Held> held_;  // in the simulator's arena
  std::array<int, kComponentCount> counts_{};
  // Per-component power-gating state, by Component index.
  struct Rail {
    TimePoint on_since;
    TimePoint tail_since;
    std::optional<sim::EventId> tail_event;
    ComponentUsage usage;

    template <typename Self, typename F>
    static void for_each_state_field(Self& self, F&& f) {
      f("on_since", self.on_since);
      f("tail_since", self.tail_since);
      // The tail event's id, 0 for none.
      f("tail_event", snapshot::by_hand(
          self.tail_event,
          [](snapshot::Writer& w, const auto& e) { w.u64(e ? e->value : 0); },
          [](snapshot::SectionReader& s, auto& e) {
            const std::uint64_t id = s.u64();
            e = id == 0 ? std::nullopt : std::optional(sim::EventId{id});
          }));
      f("usage", self.usage);
    }
  };
  std::array<Rail, kComponentCount> rails_{};
  std::uint64_t next_id_ = 1;
};

}  // namespace simty::hw
