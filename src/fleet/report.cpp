#include "fleet/report.hpp"

#include "common/strings.hpp"

namespace simty::fleet {

std::string render_fleet_report(const FleetResult& result) {
  std::string out = str_format(
      "fleet: %s over %llu devices\n", result.policy_name.c_str(),
      static_cast<unsigned long long>(result.devices));
  out += str_format("%-14s %8s %18s %8s %10s %14s %10s\n", "cohort", "devices",
                    "energy J (m±sd)", "p95 J", "mW mean", "wake/h (m,p95)",
                    "delay p99");
  auto row = [&out](const CohortAggregate& c) {
    out += str_format(
        "%-14s %8llu %11.3f±%-6.3f %8.3f %10.3f %7.1f,%-6.1f %10.4f\n",
        c.cohort.c_str(), static_cast<unsigned long long>(c.devices),
        c.energy_j.stats().mean(), c.energy_j.stats().stddev(),
        c.energy_j.quantile(0.95), c.avg_power_mw.stats().mean(),
        c.wakeups_per_hour.stats().mean(), c.wakeups_per_hour.quantile(0.95),
        c.delay_norm.quantile(0.99));
  };
  for (const CohortAggregate& c : result.cohorts) row(c);
  row(result.overall);
  return out;
}

std::string fleet_csv(const std::vector<FleetResult>& results) {
  std::string out =
      "policy,cohort,devices,metric,count,mean,stddev,min,max,p50,p95,p99\n";
  for (const FleetResult& r : results) {
    auto rows = [&out, &r](const CohortAggregate& c) {
      CohortAggregate::for_each_metric([&](const char* name, auto stream, auto) {
        const MetricAggregate& m = c.*stream;
        const OnlineStats& s = m.stats();
        out += str_format(
            "%s,%s,%llu,%s,%llu,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n",
            r.policy_name.c_str(), c.cohort.c_str(),
            static_cast<unsigned long long>(c.devices), name,
            static_cast<unsigned long long>(s.count()), s.mean(), s.stddev(),
            s.min(), s.max(), m.quantile(0.5), m.quantile(0.95), m.quantile(0.99));
      });
    };
    for (const CohortAggregate& c : r.cohorts) rows(c);
    rows(r.overall);
  }
  return out;
}

}  // namespace simty::fleet
