// Plugging a user-defined alignment policy into the framework: the
// AlignmentPolicy interface is the extension point — implement
// select_batch() and hand the policy to the AlarmManager. The example
// builds a deliberately naive "greedy grace" policy (join the first entry
// whose grace overlaps, user experience be damned... almost: perceptible
// alarms still respect windows) and races it against NATIVE and SIMTY.

#include <cstdio>
#include <memory>

#include "alarm/alarm_manager.hpp"
#include "alarm/native_policy.hpp"
#include "alarm/simty_policy.hpp"
#include "apps/workload.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "hw/device.hpp"
#include "hw/power_bus.hpp"
#include "hw/rtc.hpp"
#include "hw/wakelock.hpp"
#include "metrics/delay_stats.hpp"
#include "power/energy_accounting.hpp"
#include "sim/simulator.hpp"

using namespace simty;

namespace {

/// First-found grace-overlap alignment: maximal batching, zero hardware
/// awareness. Demonstrates what SIMTY's selection phase adds on top of the
/// mere existence of grace intervals.
class GreedyGracePolicy : public alarm::AlignmentPolicy {
 public:
  std::string name() const override { return "GREEDY-GRACE"; }

  std::optional<std::size_t> select_batch(
      const alarm::Alarm& a,
      const alarm::BatchQueue& queue) const override {
    for (std::size_t i = 0; i < queue.size(); ++i) {
      const alarm::SimilarityLevel time = alarm::time_similarity(
          a.window_interval(), a.grace_interval(), queue[i]->window_interval(),
          queue[i]->grace_interval());
      // Same user-experience guard as SIMTY's search phase; no selection
      // phase at all.
      if (alarm::is_applicable(time, a.perceptible(), queue[i]->perceptible())) {
        return i;
      }
    }
    return std::nullopt;
  }
};

struct Outcome {
  std::string name;
  double total_j;
  double wakeups;
  double wps_cycles;
  double delay;
};

Outcome run(std::unique_ptr<alarm::AlignmentPolicy> policy) {
  sim::Simulator sim;
  hw::PowerBus bus;
  power::EnergyAccountant accountant;
  bus.add_listener(&accountant);
  const hw::PowerModel model = hw::PowerModel::nexus5();
  hw::Device device(sim, model, bus);
  hw::Rtc rtc(sim, device);
  hw::WakelockManager wakelocks(sim, model, bus);
  alarm::AlarmManager manager(sim, device, rtc, wakelocks, std::move(policy));
  metrics::DelayStats delays;
  manager.add_delivery_observer(delays.observer());

  apps::WorkloadConfig wc;
  apps::Workload workload = apps::Workload::heavy(wc);
  workload.deploy(sim, manager);

  const TimePoint horizon = TimePoint::origin() + Duration::hours(3);
  sim.run_until(horizon);
  device.finalize(horizon);
  wakelocks.finalize(horizon);
  accountant.finalize(horizon);
  return Outcome{manager.policy().name(),
                 accountant.breakdown().total().joules_f(),
                 static_cast<double>(device.wakeup_count()),
                 static_cast<double>(wakelocks.usage(hw::Component::kWps).cycles),
                 delays.imperceptible().average()};
}

}  // namespace

int main() {
  std::printf("heavy workload, 3 h, one seed, three policies...\n\n");
  TextTable t("Custom policy vs the built-ins");
  t.set_header({"Policy", "total (J)", "wakeups", "WPS fixes", "imperceptible delay"});
  for (Outcome o : {run(std::make_unique<alarm::NativePolicy>()),
                    run(std::make_unique<GreedyGracePolicy>()),
                    run(std::make_unique<alarm::SimtyPolicy>())}) {
    t.add_row({o.name, str_format("%.1f", o.total_j), str_format("%.0f", o.wakeups),
               str_format("%.0f", o.wps_cycles), percent(o.delay)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("GREEDY-GRACE batches as hard as SIMTY, so most of the wakeup\n"
              "reduction comes from the grace intervals alone; the selection\n"
              "phase's hardware ranking shows up in the component columns (WPS\n"
              "fixes) and protects workloads where first-found would scatter\n"
              "expensive components across entries.\n");
  return 0;
}
