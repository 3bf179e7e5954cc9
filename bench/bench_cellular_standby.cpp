// Own stack: a cellular-sync config field would serve only this bench (ROADMAP 7).
// Ablation A13: connected standby over the 3G cellular radio (Table 2's
// WCDMA path). Data promotes the RRC machine to DCH and inactivity timers
// demote it seconds later, so every unaligned sync pays a signaling
// promotion plus a ~17 s high-power tail. Expectation: alignment is worth
// far more on cellular than on Wi-Fi — batched syncs share one promotion
// and one demotion tail — which is why the piecemeal per-app solutions the
// paper's intro criticizes were born in the 3G era.

#include <cstdio>
#include <memory>

#include "alarm/exact_policy.hpp"
#include "alarm/native_policy.hpp"
#include "alarm/simty_policy.hpp"
#include "apps/app_catalog.hpp"
#include "apps/workload.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "hw/device.hpp"
#include "hw/power_bus.hpp"
#include "hw/rtc.hpp"
#include "hw/wakelock.hpp"
#include "net/cellular.hpp"
#include "power/energy_accounting.hpp"
#include "sim/simulator.hpp"

using namespace simty;

namespace {

struct Outcome {
  double total_j = 0.0;
  double promotions = 0.0;
  double dch_seconds = 0.0;
};

// Builds the light workload's messengers as CELLULAR apps: their tasks
// wakelock nothing (the RRC machine owns the radio rail) and instead drive
// data_activity() with their sync durations.
Outcome run_cellular(std::unique_ptr<alarm::AlignmentPolicy> policy,
                     std::uint64_t seed) {
  sim::Simulator sim;
  hw::PowerBus bus;
  power::EnergyAccountant accountant;
  bus.add_listener(&accountant);
  const hw::PowerModel model = hw::PowerModel::nexus5();
  hw::Device device(sim, model, bus);
  hw::Rtc rtc(sim, device);
  hw::WakelockManager wakelocks(sim, model, bus);
  alarm::AlarmManager manager(sim, device, rtc, wakelocks, std::move(policy));
  net::CellularStandby standby(sim, manager, bus);

  std::vector<net::CellularSyncSpec> specs;
  for (const apps::AppProfile& p : apps::light_workload_profiles()) {
    if (!p.hardware.contains(hw::Component::kWifi)) continue;  // messengers only
    specs.push_back(net::CellularSyncSpec{p.name, p.mode, p.repeat, p.alpha,
                                          p.base_hold, p.hold_jitter});
  }
  standby.deploy(specs, Rng(seed, 0x363), 0.96);

  const TimePoint horizon = TimePoint::origin() + Duration::hours(3);
  sim.run_until(horizon);
  device.finalize(horizon);
  wakelocks.finalize(horizon);
  standby.finalize(horizon);
  accountant.finalize(horizon);
  const net::RrcMachine& rrc = standby.rrc();
  return Outcome{accountant.breakdown().total().joules_f(),
                 static_cast<double>(rrc.idle_promotions() + rrc.fach_promotions()),
                 rrc.time_in(net::RrcState::kDch).seconds_f()};
}

using PolicyFactory = std::unique_ptr<alarm::AlignmentPolicy> (*)();

Outcome averaged(PolicyFactory make) {
  Outcome sum;
  const int reps = 3;
  for (int i = 0; i < reps; ++i) {
    const Outcome o = run_cellular(make(), static_cast<std::uint64_t>(i + 1));
    sum.total_j += o.total_j / reps;
    sum.promotions += o.promotions / reps;
    sum.dch_seconds += o.dch_seconds / reps;
  }
  return sum;
}

}  // namespace

int main() {
  struct Variant {
    const char* label;
    PolicyFactory make;
  };
  const Variant kVariants[] = {
      {"EXACT",
       [] { return std::unique_ptr<alarm::AlignmentPolicy>(new alarm::ExactPolicy); }},
      {"NATIVE",
       [] { return std::unique_ptr<alarm::AlignmentPolicy>(new alarm::NativePolicy); }},
      {"SIMTY",
       [] { return std::unique_ptr<alarm::AlignmentPolicy>(new alarm::SimtyPolicy); }},
  };

  TextTable t("Cellular (3G RRC) standby: 11 messengers, 3 h, 3 seeds");
  t.set_header({"Policy", "total (J)", "RRC promotions", "DCH time (s)",
                "saving vs NATIVE"});
  double native_total = 0.0;
  std::vector<Outcome> outcomes;
  for (const Variant& v : kVariants) outcomes.push_back(averaged(v.make));
  native_total = outcomes[1].total_j;
  for (std::size_t i = 0; i < 3; ++i) {
    t.add_row({kVariants[i].label, str_format("%.1f", outcomes[i].total_j),
               str_format("%.0f", outcomes[i].promotions),
               str_format("%.0f", outcomes[i].dch_seconds),
               percent(1.0 - outcomes[i].total_j / native_total)});
  }
  std::printf("%s", t.render().c_str());
  std::printf("\nFor comparison, the same messengers on Wi-Fi save ~22%% (see\n"
              "bench_fig3_energy); the RRC tails make alignment worth more here.\n");
  return 0;
}
