#include "exp/reporting.hpp"

#include "common/check.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace simty::exp {

std::string render_energy_figure(const std::vector<NamedResult>& columns) {
  SIMTY_CHECK(!columns.empty());
  TextTable t("Figure 3: energy consumption in connected standby (J)");
  std::vector<std::string> header{"Energy (J)"};
  for (const NamedResult& c : columns) header.push_back(c.label);
  t.set_header(std::move(header));

  auto add = [&](const std::string& name, auto get) {
    std::vector<std::string> row{name};
    for (const NamedResult& c : columns) {
      row.push_back(str_format("%.1f", get(c.result)));
    }
    t.add_row(std::move(row));
  };
  add("awake (alignable)", [](const RunResult& r) {
    return r.energy.awake_total().joules_f();
  });
  add("sleep (floor)", [](const RunResult& r) { return r.energy.sleep.joules_f(); });
  add("total", [](const RunResult& r) { return r.energy.total().joules_f(); });
  t.add_separator();

  // Savings of each column vs the first column (the NATIVE baseline of its
  // pair by convention: pass columns as N, S, N, S...). A baseline that
  // spent nothing (a run too short to wake) has no saving to report.
  const auto saving = [](Energy e, Energy base) {
    return base == Energy::zero() ? std::string("n/a") : percent(1.0 - e.ratio(base));
  };
  std::vector<std::string> awake_row{"awake saving vs col 1"};
  std::vector<std::string> total_row{"total saving vs col 1"};
  const RunResult& base = columns.front().result;
  for (const NamedResult& c : columns) {
    awake_row.push_back(saving(c.result.energy.awake_total(), base.energy.awake_total()));
    total_row.push_back(saving(c.result.energy.total(), base.energy.total()));
  }
  t.add_row(std::move(awake_row));
  t.add_row(std::move(total_row));
  return t.render();
}

std::string render_delay_figure(const std::vector<NamedResult>& columns) {
  TextTable t("Figure 4: average normalized delivery delay");
  std::vector<std::string> header{"Alarm class"};
  for (const NamedResult& c : columns) header.push_back(c.label);
  t.set_header(std::move(header));

  std::vector<std::string> prow{"perceptible"};
  std::vector<std::string> irow{"imperceptible"};
  std::vector<std::string> p95row{"imperceptible p95"};
  for (const NamedResult& c : columns) {
    prow.push_back(percent(c.result.delay_perceptible));
    irow.push_back(percent(c.result.delay_imperceptible));
    p95row.push_back(percent(c.result.delay_imperceptible_p95));
  }
  t.add_row(std::move(prow));
  t.add_row(std::move(irow));
  t.add_row(std::move(p95row));
  return t.render();
}

std::string render_wakeup_table(const std::vector<NamedResult>& columns) {
  SIMTY_CHECK(!columns.empty());
  TextTable t("Table 4: the wakeup breakdown (actual/expected)");
  std::vector<std::string> header{"Hardware"};
  for (const NamedResult& c : columns) header.push_back(c.label);
  t.set_header(std::move(header));

  const std::size_t rows = columns.front().result.wakeups.size();
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<std::string> row{columns.front().result.wakeups[i].hardware};
    for (const NamedResult& c : columns) {
      SIMTY_CHECK(c.result.wakeups.size() == rows);
      const auto& w = c.result.wakeups[i];
      row.push_back(str_format("%.0f/%.0f", w.actual, w.expected));
    }
    t.add_row(std::move(row));
  }
  return t.render();
}

std::string render_standby_projection(const std::vector<NamedResult>& columns) {
  TextTable t("Projected standby time (full 2300 mAh pack at measured average power)");
  t.set_header({"Policy", "avg power (mW)", "standby (h)", "extension vs col 1"});
  const double base_hours = columns.front().result.projected_standby_hours;
  for (const NamedResult& c : columns) {
    t.add_row({c.label, str_format("%.2f", c.result.average_power_mw),
               str_format("%.1f", c.result.projected_standby_hours),
               percent(c.result.projected_standby_hours / base_hours - 1.0)});
  }
  return t.render();
}

std::string render_guarantee_audit(const std::vector<NamedResult>& columns) {
  TextTable t("Delivery-guarantee audit (section 3.2.2 properties)");
  t.set_header({"Policy", "worst gap / ReIn", "gap violations",
                "perceptible window misses"});
  for (const NamedResult& c : columns) {
    t.add_row({c.label, str_format("%.3f", c.result.worst_gap_ratio),
               str_format("%llu", static_cast<unsigned long long>(
                                      c.result.gap_violations)),
               str_format("%llu", static_cast<unsigned long long>(
                                      c.result.perceptible_window_misses))});
  }
  return t.render();
}

std::string render_paging_table(const std::vector<NamedResult>& columns) {
  SIMTY_CHECK(!columns.empty());
  bool any = false;
  for (const NamedResult& c : columns) {
    const RunResult& r = c.result;
    any = any || r.pages_answered > 0.0 || r.drx_listen_seconds > 0.0 ||
          r.wur_listen_seconds > 0.0;
  }
  if (!any) return {};

  TextTable t("Downlink paging (DRX / wake-up receiver)");
  std::vector<std::string> header{"Paging"};
  for (const NamedResult& c : columns) header.push_back(c.label);
  t.set_header(std::move(header));
  auto add = [&](const std::string& name, const char* fmt, auto get) {
    std::vector<std::string> row{name};
    for (const NamedResult& c : columns) {
      row.push_back(str_format(fmt, get(c.result)));
    }
    t.add_row(std::move(row));
  };
  add("pages answered", "%.1f", [](const RunResult& r) { return r.pages_answered; });
  add("page delay avg (s)", "%.3f",
      [](const RunResult& r) { return r.page_delay_avg_s; });
  add("page delay p95 (s)", "%.3f",
      [](const RunResult& r) { return r.page_delay_p95_s; });
  add("DRX listen (s)", "%.2f",
      [](const RunResult& r) { return r.drx_listen_seconds; });
  add("WuR listen (s)", "%.2f",
      [](const RunResult& r) { return r.wur_listen_seconds; });
  add("WuR triggers", "%.1f", [](const RunResult& r) { return r.wur_triggers; });
  return t.render();
}

std::string results_csv(const std::vector<NamedResult>& columns) {
  CsvWriter csv({"label", "policy", "awake_J", "sleep_J", "total_J", "avg_mW",
                 "standby_h", "delay_perceptible", "delay_imperceptible",
                 "cpu_wakeups", "cpu_expected", "deliveries", "pages",
                 "page_delay_avg_s", "page_delay_p95_s"});
  for (const NamedResult& c : columns) {
    const RunResult& r = c.result;
    const RunResult::HwCounts cpu = cpu_wakeups(r);
    csv.add_row({c.label, r.policy_name,
                 str_format("%.2f", r.energy.awake_total().joules_f()),
                 str_format("%.2f", r.energy.sleep.joules_f()),
                 str_format("%.2f", r.energy.total().joules_f()),
                 str_format("%.3f", r.average_power_mw),
                 str_format("%.2f", r.projected_standby_hours),
                 str_format("%.5f", r.delay_perceptible),
                 str_format("%.5f", r.delay_imperceptible),
                 str_format("%.1f", cpu.actual), str_format("%.1f", cpu.expected),
                 str_format("%.1f", r.deliveries),
                 str_format("%.1f", r.pages_answered),
                 str_format("%.5f", r.page_delay_avg_s),
                 str_format("%.5f", r.page_delay_p95_s)});
  }
  return csv.to_string();
}

}  // namespace simty::exp
