#pragma once
// Hardware components and wakelockable component sets.
//
// Only components that alarms can wakelock autonomously participate in
// similarity determination (paper §3.1.1) — the CPU and memory are implicit
// in every wakeup and are modelled by the device FSM instead. A component
// set may therefore be empty (an alarm that only needs the CPU).

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "snapshot/codec.hpp"

namespace simty::hw {

/// Wakelockable hardware components of the modelled smartphone (Table 2).
enum class Component : std::uint8_t {
  kWifi = 0,          // WLAN radio (sync traffic)
  kWps,               // Wi-Fi positioning scan pipeline
  kGps,               // GPS receiver (modelled; unused by the paper workloads)
  kCellular,          // cellular data radio
  kAccelerometer,     // motion sensor (step counters)
  kSpeaker,           // audio out — user-perceptible
  kVibrator,          // haptics — user-perceptible
  kScreen,            // display — user-perceptible
  kWur,               // low-power wake-up receiver (5G WuR companion radio)
};

inline constexpr int kComponentCount = 9;

/// Short stable name, e.g. "wifi", "speaker".
const char* to_string(Component c);

/// True for components whose activation the user notices (screen, speaker,
/// vibrator) — the basis of alarm perceptibility (paper §3.1.2).
bool is_user_perceptible(Component c);

/// Bitmask of the user-perceptible components, for branch-free perceptibility
/// tests on ComponentSet bitmasks.
constexpr std::uint32_t perceptible_mask() {
  return (1u << static_cast<std::uint8_t>(Component::kSpeaker)) |
         (1u << static_cast<std::uint8_t>(Component::kVibrator)) |
         (1u << static_cast<std::uint8_t>(Component::kScreen));
}

/// A set of hardware components, stored as a bitmask.
class ComponentSet {
 public:
  constexpr ComponentSet() = default;
  ComponentSet(std::initializer_list<Component> cs);

  static constexpr ComponentSet none() { return ComponentSet{}; }

  /// Set with every modelled component.
  static ComponentSet all();

  /// Rebuilds a set from bits() output (snapshot restore); bits outside
  /// the modelled components are rejected.
  static ComponentSet from_bits(std::uint32_t bits);

  bool empty() const { return bits_ == 0; }
  std::size_t size() const;
  bool contains(Component c) const;

  void insert(Component c);
  void erase(Component c);

  ComponentSet operator|(ComponentSet o) const;  // union
  ComponentSet operator&(ComponentSet o) const;  // intersection
  ComponentSet operator-(ComponentSet o) const;  // difference
  ComponentSet& operator|=(ComponentSet o);

  bool operator==(const ComponentSet&) const = default;

  /// True when the two sets share at least one component.
  bool intersects(ComponentSet o) const { return (bits_ & o.bits_) != 0; }

  /// True when this set contains any user-perceptible component. A single
  /// mask test — the hot path of alarm/entry perceptibility.
  bool any_perceptible() const { return (bits_ & perceptible_mask()) != 0; }

  /// Calls `f(Component)` for each member in enum order. Walks the bitmask
  /// (lowest set bit first), so iteration allocates nothing.
  template <typename F>
  void for_each(F&& f) const {
    for (std::uint32_t b = bits_; b != 0; b &= b - 1) {
      f(static_cast<Component>(std::countr_zero(b)));
    }
  }

  /// Renders as "{wifi,wps}" or "{}".
  std::string to_string() const;

  constexpr std::uint32_t bits() const { return bits_; }

  /// Snapshot field: the bits, restored through from_bits().
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("bits", snapshot::by_hand(
        self, [](snapshot::Writer& w, ComponentSet set) { w.u32(set.bits()); },
        [](snapshot::SectionReader& s, auto& set) { set = from_bits(s.u32()); }));
  }

 private:
  std::uint32_t bits_ = 0;
};

}  // namespace simty::hw
