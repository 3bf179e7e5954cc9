#include "usage/interactive.hpp"

#include "alarm/alarm_manager.hpp"
#include "apps/system_alarms.hpp"
#include "common/check.hpp"
#include "hw/power_bus.hpp"
#include "hw/rtc.hpp"
#include "power/energy_accounting.hpp"

namespace simty::usage {

InteractiveDriver::InteractiveDriver(sim::Simulator& sim, hw::Device& device,
                                     hw::WakelockManager& wakelocks)
    : sim_(sim), device_(device), wakelocks_(wakelocks) {}

void InteractiveDriver::schedule(const std::vector<InteractiveSession>& sessions) {
  for (const InteractiveSession& s : sessions) {
    SIMTY_CHECK_MSG(s.start >= sim_.now(), "session start in the past");
    sim_.schedule_at(
        s.start, [this, s] { run_session(s); }, sim::EventPriority::kApp,
        "interactive-session");
  }
}

void InteractiveDriver::run_session(InteractiveSession session) {
  device_.request_awake(hw::WakeReason::kUserButton, [this, session] {
    device_.acquire_cpu_lock();
    const hw::WakelockId screen =
        wakelocks_.acquire(hw::Component::kScreen, "user-session");
    sim_.schedule_after(
        session.length,
        [this, session, screen] {
          wakelocks_.try_release(screen);
          device_.release_cpu_lock();
          ++completed_;
          screen_on_ += session.length;
        },
        sim::EventPriority::kApp, "interactive-session-end");
  });
}

double MixedDayResult::battery_days(Energy capacity) const {
  SIMTY_CHECK(energy.total() > Energy::zero());
  return capacity.ratio(energy.total());
}

MixedDayResult simulate_day_mixed(const exp::ExperimentConfig& standby_config,
                                  const UsagePattern& pattern, std::uint64_t seed) {
  sim::Simulator sim;
  hw::PowerBus bus;
  power::EnergyAccountant accountant;
  bus.add_listener(&accountant);
  hw::Device device(sim, standby_config.power_model, bus);
  hw::Rtc rtc(sim, device);
  hw::WakelockManager wakelocks(sim, standby_config.power_model, bus);
  alarm::AlarmManager manager(sim, device, rtc, wakelocks,
                              exp::make_policy(standby_config));

  std::uint64_t nonwakeup = 0;
  manager.add_delivery_observer([&](const alarm::DeliveryRecord& r) {
    if (r.kind == alarm::AlarmKind::kNonWakeup) ++nonwakeup;
  });

  apps::WorkloadConfig wc;
  wc.seed = seed;
  wc.beta = standby_config.beta;
  apps::Workload workload =
      standby_config.workload == exp::WorkloadKind::kHeavy
          ? apps::Workload::heavy(wc)
          : apps::Workload::light(wc);
  workload.deploy(sim, manager);

  // An OS housekeeping task that never wakes the device by itself: it
  // rides alarm wakeups at night and user sessions by day (§2.1).
  alarm::AlarmSpec housekeeping = alarm::AlarmSpec::repeating(
      "os.logcompact", apps::SystemAlarmSource::kSystemApp,
      alarm::RepeatMode::kStatic, Duration::seconds(1800), 0.5, 0.9);
  housekeeping.kind = alarm::AlarmKind::kNonWakeup;
  manager.register_alarm(housekeeping,
                         TimePoint::origin() + Duration::seconds(1800),
                         [](const alarm::Alarm&, TimePoint) {
                           return alarm::TaskSpec{};
                         });

  const TimePoint horizon = TimePoint::origin() + Duration::hours(24);
  std::unique_ptr<apps::SystemAlarmSource> system_alarms;
  if (standby_config.system_alarms) {
    apps::SystemAlarmConfig sys_cfg;
    sys_cfg.beta = standby_config.beta;
    system_alarms = std::make_unique<apps::SystemAlarmSource>(
        sim, manager, sys_cfg, Rng(seed, 0x515));
    system_alarms->start(horizon);
  }

  InteractiveDriver driver(sim, device, wakelocks);
  driver.schedule(sample_sessions(pattern, seed));

  sim.run_until(horizon);
  device.finalize(horizon);
  wakelocks.finalize(horizon);
  accountant.finalize(horizon);

  MixedDayResult out;
  out.energy = accountant.breakdown();
  out.screen_on_time = driver.screen_on_time();
  out.sessions = driver.sessions_completed();
  out.wakeups = device.wakeup_count();
  out.user_wakeups = device.wakeups_for(hw::WakeReason::kUserButton);
  out.deliveries = static_cast<double>(manager.stats().deliveries);
  out.nonwakeup_deliveries = static_cast<double>(nonwakeup);
  return out;
}

}  // namespace simty::usage
