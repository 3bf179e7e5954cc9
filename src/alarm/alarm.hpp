#pragma once
// Alarm records: the unit of wakeup management.
//
// Mirrors the Android 4.4 AlarmManager attributes the paper builds on
// (§2.1): a nominal delivery time, a window interval enabling inexact
// delivery, a repeating interval (zero for one-shot), static vs dynamic
// repeating, and wakeup vs non-wakeup kinds. SIMTY adds the grace interval
// (§3.1.2) and a hardware set learned at first delivery (footnote 4).

#include <cstdint>
#include <memory>
#include <string>

#include "common/interval.hpp"
#include "common/time.hpp"
#include "hw/component.hpp"

namespace simty::snapshot {
class Writer;
class SectionReader;
}  // namespace simty::snapshot

namespace simty::alarm {

/// Stable identity of a registered alarm across re-insertions ("the same
/// alarm" in the paper's realignment rule).
struct AlarmId {
  std::uint64_t value = 0;
  bool operator==(const AlarmId&) const = default;
  auto operator<=>(const AlarmId&) const = default;

  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) { f("value", self.value); }
};

/// Identifies the registering app (for traces and reports).
struct AppId {
  std::uint32_t value = 0;
  bool operator==(const AppId&) const = default;
  auto operator<=>(const AppId&) const = default;

  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) { f("value", self.value); }
};

/// Wakeup alarms wake the platform via the RTC; non-wakeup alarms wait for
/// the device to be awake for any other reason (§2.1).
enum class AlarmKind : std::uint8_t { kWakeup = 0, kNonWakeup };

/// One-shot, fixed-grid repeating, or delivery-anchored repeating (§2.1).
enum class RepeatMode : std::uint8_t { kOneShot = 0, kStatic, kDynamic };

const char* to_string(AlarmKind k);
const char* to_string(RepeatMode m);

/// Registration-time attributes of an alarm.
struct AlarmSpec {
  std::string tag;                     // app-chosen label, e.g. "line.sync"
  AppId app;
  AlarmKind kind = AlarmKind::kWakeup;
  RepeatMode mode = RepeatMode::kOneShot;
  Duration repeat_interval = Duration::zero();  // 0 iff one-shot
  Duration window_length = Duration::zero();    // alpha * repeat for repeating
  Duration grace_length = Duration::zero();     // beta * repeat; >= window

  /// Builds a repeating spec from the paper's (ReIn, alpha, beta) attributes.
  static AlarmSpec repeating(std::string tag, AppId app, RepeatMode mode,
                             Duration repeat, double alpha, double beta);

  /// Builds a one-shot spec with an explicit window.
  static AlarmSpec one_shot(std::string tag, AppId app, Duration window);

  /// Throws std::logic_error when the invariants of §3.1.2 are violated
  /// (negative lengths, grace < window, repeating grace >= repeat, ...).
  void validate() const;

  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("tag", self.tag);
    f("app", self.app);
    f("kind", self.kind);
    f("mode", self.mode);
    f("repeat_interval", self.repeat_interval);
    f("window_length", self.window_length);
    f("grace_length", self.grace_length);
  }
};

/// A registered alarm instance owned by the alarm manager. `nominal` moves
/// forward on every re-insertion; the hardware profile is learned at first
/// delivery.
class Alarm {
 public:
  Alarm(AlarmId id, AlarmSpec spec, TimePoint nominal);

  AlarmId id() const { return id_; }
  const AlarmSpec& spec() const { return spec_; }
  TimePoint nominal() const { return nominal_; }

  /// [nominal, nominal + window]: the developer-acceptable delivery range.
  TimeInterval window_interval() const;

  /// [nominal, nominal + grace]: how far SIMTY may postpone an
  /// imperceptible delivery (== window for perceptible/one-shot alarms).
  TimeInterval grace_interval() const;

  /// Hardware learned from deliveries so far; empty until known.
  hw::ComponentSet hardware() const { return hardware_; }
  bool hardware_known() const { return hardware_known_; }

  /// Expected wakelock hold (running average of observed holds); zero until
  /// known. Consumed by the duration-similarity policy extension (§5).
  Duration expected_hold() const { return expected_hold_; }

  /// Perceptibility per §3.1.2 + footnote 5: one-shot alarms and alarms
  /// whose hardware set is still unknown are perceptible by definition;
  /// otherwise an alarm is perceptible iff it wakelocks a user-perceptible
  /// component. Precomputed — perceptibility only changes when a delivery
  /// is recorded, never on reschedule, so policy scans read a cached flag.
  bool perceptible() const { return perceptible_; }

  std::uint64_t delivery_count() const { return delivery_count_; }

  /// Moves the nominal time for the next instance (reinsertion).
  void reschedule(TimePoint nominal);

  /// Replaces the grace interval length (the warm-start β lever), validated
  /// against the same §3.1.2 invariants as registration. The owner must
  /// rebatch afterwards — queued entries cache the old interval.
  void set_grace_length(Duration grace);

  /// State fields (spec and learned profile), in snapshot order; restore()
  /// rebuilds an equivalent alarm (same id, spec, nominal, and profile).
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("id", self.id_);
    f("spec", self.spec_);
    f("nominal", self.nominal_);
    f("hardware", self.hardware_);
    f("hardware_known", self.hardware_known_);
    f("expected_hold", self.expected_hold_);
    f("delivery_count", self.delivery_count_);
  }
  static Alarm restore(snapshot::SectionReader& s);

  /// Records a completed delivery and its observed hardware usage
  /// (footnote 4: the hardware set is specified immediately after
  /// delivery, not at registration).
  void record_delivery(hw::ComponentSet used, Duration hold);

  std::string to_string() const;

 private:
  Alarm() = default;  // restore() fills it in
  void update_perceptibility();

  AlarmId id_;
  AlarmSpec spec_;
  TimePoint nominal_;
  hw::ComponentSet hardware_;
  bool hardware_known_ = false;
  bool perceptible_ = true;
  Duration expected_hold_ = Duration::zero();
  std::uint64_t delivery_count_ = 0;
};

}  // namespace simty::alarm
