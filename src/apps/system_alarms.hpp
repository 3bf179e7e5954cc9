#pragma once
// Android system-service alarms.
//
// Table 4's CPU rows "also count one-shot and system alarms": beyond the 18
// user apps, the platform itself schedules periodic bookkeeping (netstats
// polls, battery stats, time sync) plus sporadic one-shot alarms. This
// source models both so the CPU wakeup counts have the same composition as
// the paper's.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "alarm/alarm_manager.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace simty::snapshot {
class Writer;
class SectionReader;
}  // namespace simty::snapshot

namespace simty::apps {

/// Configuration of the system-alarm mix.
struct SystemAlarmConfig {
  /// Periodic imperceptible services: (tag, repeat seconds). All use
  /// alpha = 0.75 like ordinary inexact system alarms and wakelock nothing
  /// (CPU-only bookkeeping).
  bool periodic_services = true;

  /// Platform grace factor for the periodic services (clamped up to their
  /// alpha, §3.1.2).
  double beta = 0.96;

  /// Mean inter-arrival of sporadic one-shot alarms (exponential); zero
  /// disables them. One-shot alarms are perceptible by definition
  /// (footnote 5), so they always wake the device inside their window.
  Duration one_shot_mean = Duration::seconds(180);

  /// Window length of the sporadic one-shots.
  Duration one_shot_window = Duration::seconds(30);
};

/// Registers system alarms and keeps spawning sporadic one-shots.
class SystemAlarmSource {
 public:
  SystemAlarmSource(sim::Simulator& sim, alarm::AlarmManager& manager,
                    SystemAlarmConfig config, Rng rng);

  SystemAlarmSource(const SystemAlarmSource&) = delete;
  SystemAlarmSource& operator=(const SystemAlarmSource&) = delete;

  /// Registers the periodic services and schedules the first one-shot.
  /// `horizon` bounds one-shot spawning.
  void start(TimePoint horizon);

  std::uint64_t one_shots_fired() const { return one_shots_fired_; }

  /// The app id all system alarms are registered under.
  static constexpr alarm::AppId kSystemApp{9999};

  /// Resolves delivery handlers for system alarms on restore: "android.*"
  /// services are stateless, "system.oneshot.*" handlers count firings.
  /// Returns an empty handler for foreign tags.
  alarm::DeliveryHandler handler_for(const std::string& tag);

  /// The snapshot carries the rng stream, counters, and the pending spawn
  /// event. restore() overwrites whatever start() did on the fresh stack (the
  /// registered alarms live in the manager's snapshot; start()'s spawn
  /// event dies with the queue restore) and rebinds the saved spawn chain.
  void restore(snapshot::SectionReader& s);

  /// State fields, in snapshot order.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("rng", self.rng_);
    f("horizon", self.horizon_);
    f("one_shots_fired", self.one_shots_fired_);
    f("one_shot_seq", self.one_shot_seq_);
    f("spawn_event", self.spawn_event_);
  }

 private:
  void spawn_next_one_shot();
  void on_spawn_event();
  alarm::DeliveryHandler one_shot_handler();

  sim::Simulator& sim_;
  alarm::AlarmManager& manager_;
  SystemAlarmConfig config_;
  Rng rng_;
  TimePoint horizon_;
  std::optional<sim::EventId> spawn_event_;
  std::uint64_t one_shots_fired_ = 0;
  std::uint64_t one_shot_seq_ = 0;
};

}  // namespace simty::apps
