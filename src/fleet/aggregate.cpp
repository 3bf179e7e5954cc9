#include "fleet/aggregate.hpp"

#include "exp/experiment.hpp"

namespace simty::fleet {

DeviceMetrics device_metrics(const exp::RunResult& r) {
  DeviceMetrics m;
  m.energy_j = r.energy.total().joules_f();
  m.avg_power_mw = r.average_power_mw;
  const double hours = r.duration.seconds_f() / 3600.0;
  if (hours > 0.0) m.wakeups_per_hour = exp::cpu_wakeups(r).actual / hours;
  m.delay_norm = r.delay_imperceptible;
  return m;
}

}  // namespace simty::fleet
