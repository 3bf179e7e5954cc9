#include "apps/system_alarms.hpp"

#include <algorithm>

#include "snapshot/codec.hpp"

namespace simty::apps {

SystemAlarmSource::SystemAlarmSource(sim::Simulator& sim,
                                     alarm::AlarmManager& manager,
                                     SystemAlarmConfig config, Rng rng)
    : sim_(sim), manager_(manager), config_(config), rng_(rng) {}

void SystemAlarmSource::start(TimePoint horizon) {
  horizon_ = horizon;
  const TimePoint now = sim_.now();

  if (config_.periodic_services) {
    // Representative Android services; CPU-only (no extra wakelocks), so
    // they become imperceptible once profiled and align freely.
    struct Service {
      const char* tag;
      std::int64_t repeat_s;
    };
    constexpr Service kServices[] = {
        {"android.netstats.poll", 600},
        {"android.batterystats", 900},
        {"android.time_sync", 1200},
        {"android.sync.heartbeat", 300},
        {"android.job.heartbeat", 240},
        {"android.dhcp.renew", 420},
        {"android.backup", 1800},
    };
    const double grace = std::max(config_.beta, 0.75);
    for (const Service& s : kServices) {
      manager_.register_alarm(
          alarm::AlarmSpec::repeating(s.tag, kSystemApp, alarm::RepeatMode::kStatic,
                                      Duration::seconds(s.repeat_s), 0.75, grace),
          now + Duration::seconds(s.repeat_s),
          [](const alarm::Alarm&, TimePoint) { return alarm::TaskSpec{}; });
    }
  }

  if (config_.one_shot_mean > Duration::zero()) spawn_next_one_shot();
}

void SystemAlarmSource::spawn_next_one_shot() {
  spawn_event_.reset();
  const Duration gap =
      Duration::from_seconds(rng_.exponential(config_.one_shot_mean.seconds_f()));
  const TimePoint when = sim_.now() + std::max(gap, Duration::seconds(1));
  if (when >= horizon_) return;
  spawn_event_ = sim_.schedule_at(when, [this] { on_spawn_event(); },
                                  sim::EventPriority::kApp,
                                  "system-one-shot-spawn");
}

void SystemAlarmSource::on_spawn_event() {
  ++one_shot_seq_;
  manager_.register_alarm(
      alarm::AlarmSpec::one_shot("system.oneshot." + std::to_string(one_shot_seq_),
                                 kSystemApp, config_.one_shot_window),
      sim_.now() + Duration::seconds(1), one_shot_handler());
  spawn_next_one_shot();
}

alarm::DeliveryHandler SystemAlarmSource::one_shot_handler() {
  return [this](const alarm::Alarm&, TimePoint) {
    ++one_shots_fired_;
    return alarm::TaskSpec{};
  };
}

alarm::DeliveryHandler SystemAlarmSource::handler_for(const std::string& tag) {
  if (tag.rfind("android.", 0) == 0) {
    return [](const alarm::Alarm&, TimePoint) { return alarm::TaskSpec{}; };
  }
  if (tag.rfind("system.oneshot.", 0) == 0) return one_shot_handler();
  return {};
}

void SystemAlarmSource::restore(snapshot::SectionReader& s) {
  // start()'s spawn event died with the queue restore; the saved chain,
  // if any, replaces it.
  snapshot::read_fields(s, *this);
  if (spawn_event_) sim_.rebind(*spawn_event_, [this] { on_spawn_event(); });
}

}  // namespace simty::apps
