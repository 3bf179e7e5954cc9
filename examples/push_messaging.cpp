// Push messaging end to end: a messenger that uses BOTH wakeup mechanisms
// of paper footnote 1 — its periodic sync alarm through the AlarmManager
// and GCM pushes for incoming chats — plus a non-wakeup housekeeping alarm
// that rides whatever wakes the device first.

#include <cstdio>
#include <memory>

#include "alarm/alarm_manager.hpp"
#include "alarm/simty_policy.hpp"
#include "experiments/gcm_service.hpp"
#include "hw/device.hpp"
#include "hw/power_bus.hpp"
#include "hw/rtc.hpp"
#include "hw/wakelock.hpp"
#include "net/wifi_link.hpp"
#include "power/energy_accounting.hpp"
#include "sim/simulator.hpp"

using namespace simty;

int main() {
  sim::Simulator sim;
  hw::PowerBus bus;
  power::EnergyAccountant accountant;
  bus.add_listener(&accountant);
  const hw::PowerModel model = hw::PowerModel::nexus5();
  hw::Device device(sim, model, bus);
  hw::Rtc rtc(sim, device);
  hw::WakelockManager wakelocks(sim, model, bus);
  alarm::AlarmManager manager(sim, device, rtc, wakelocks,
                              std::make_unique<alarm::SimtyPolicy>());

  const TimePoint horizon = TimePoint::origin() + Duration::hours(3);

  // A realistic Wi-Fi link for payload fetches.
  net::WifiLink link(sim, net::WifiLinkConfig{}, Rng(1));
  link.start(horizon);

  // Mechanism 1: the periodic sync alarm (internal wakeups).
  manager.register_alarm(
      alarm::AlarmSpec::repeating("chatapp.sync", alarm::AppId{1},
                                  alarm::RepeatMode::kDynamic,
                                  Duration::seconds(300), 0.75, 0.96),
      TimePoint::origin() + Duration::seconds(300),
      [](const alarm::Alarm&, TimePoint) {
        return alarm::TaskSpec{hw::ComponentSet{hw::Component::kWifi},
                               Duration::seconds(2)};
      });

  // A non-wakeup log-compaction alarm: waits for any wake.
  alarm::AlarmSpec housekeeping = alarm::AlarmSpec::repeating(
      "chatapp.compact", alarm::AppId{1}, alarm::RepeatMode::kStatic,
      Duration::seconds(900), 0.5, 0.9);
  housekeeping.kind = alarm::AlarmKind::kNonWakeup;
  std::uint64_t compactions = 0;
  manager.register_alarm(housekeeping, TimePoint::origin() + Duration::seconds(900),
                         [&compactions](const alarm::Alarm&, TimePoint) {
                           ++compactions;
                           return alarm::TaskSpec{};
                         });

  // Mechanism 2: the push channel (external wakeups).
  gcm::GcmService gcmsvc(sim, device, wakelocks, manager, gcm::GcmConfig{}, &link);
  gcmsvc.connect();
  std::uint64_t chats = 0;
  gcmsvc.subscribe("chatapp.msg", [&chats](const gcm::PushMessage&) { ++chats; });
  gcm::PushServer server(
      sim, gcmsvc,
      {gcm::TopicTraffic{"chatapp.msg", Duration::seconds(420), 4096}}, Rng(7));
  server.start(horizon);

  sim.run_until(horizon);
  device.finalize(horizon);
  wakelocks.finalize(horizon);
  accountant.finalize(horizon);

  std::printf("3 h of connected standby for one messenger:\n");
  std::printf("  periodic syncs delivered: %llu\n",
              static_cast<unsigned long long>(manager.stats().deliveries -
                                              gcmsvc.heartbeats() - compactions));
  std::printf("  GCM heartbeats:           %llu\n",
              static_cast<unsigned long long>(gcmsvc.heartbeats()));
  std::printf("  chats pushed/received:    %llu/%llu\n",
              static_cast<unsigned long long>(server.sent()),
              static_cast<unsigned long long>(chats));
  std::printf("  housekeeping runs:        %llu (rode other wakeups)\n",
              static_cast<unsigned long long>(compactions));
  std::printf("  device wakeups:           %llu (%llu by RTC, %llu by push)\n",
              static_cast<unsigned long long>(device.wakeup_count()),
              static_cast<unsigned long long>(
                  device.wakeups_for(hw::WakeReason::kRtcAlarm)),
              static_cast<unsigned long long>(
                  device.wakeups_for(hw::WakeReason::kExternalPush)));
  std::printf("  total energy:             %s (avg %s)\n",
              accountant.breakdown().total().to_string().c_str(),
              accountant.average_power().to_string().c_str());
  return 0;
}
