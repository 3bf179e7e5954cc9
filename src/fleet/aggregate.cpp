#include "fleet/aggregate.hpp"

#include "exp/experiment.hpp"
#include "snapshot/snapshot.hpp"

namespace simty::fleet {

void MetricAggregate::save(snapshot::Writer& w) const {
  const OnlineStats::State s = stats_.state();
  w.u64(s.n);
  w.f64(s.mean);
  w.f64(s.m2);
  w.f64(s.min);
  w.f64(s.max);
  hist_.save(w);
}

void MetricAggregate::restore(snapshot::SectionReader& s) {
  OnlineStats::State st;
  st.n = s.u64();
  st.mean = s.f64();
  st.m2 = s.f64();
  st.min = s.f64();
  st.max = s.f64();
  stats_ = OnlineStats::from_state(st);
  hist_.restore(s);
}

void CohortAggregate::save(snapshot::Writer& w) const {
  w.str(cohort);
  w.u64(devices);
  for_each_metric([&](const char*, auto stream, auto) { (this->*stream).save(w); });
}

void CohortAggregate::restore(snapshot::SectionReader& s) {
  cohort = s.str();
  devices = s.u64();
  for_each_metric([&](const char*, auto stream, auto) { (this->*stream).restore(s); });
}

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
