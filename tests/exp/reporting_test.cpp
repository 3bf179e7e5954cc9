#include "exp/reporting.hpp"

#include <gtest/gtest.h>

namespace simty::exp {
namespace {

RunResult sample(double total_j, double awake_j) {
  RunResult r;
  r.policy_name = "NATIVE";
  r.energy.sleep = Energy::joules(total_j - awake_j);
  r.energy.awake_base = Energy::joules(awake_j);
  r.average_power_mw = 60.0;
  r.projected_standby_hours = 140.0;
  r.delay_perceptible = 0.0;
  r.delay_imperceptible = 0.179;
  r.wakeups = {{"CPU", 733, 983}, {"Speaker&Vibrator", 6, 6}, {"Wi-Fi", 443, 548},
               {"WPS", 0, 0}, {"Accelerometer", 0, 0}};
  r.worst_gap_ratio = 1.95;
  return r;
}

TEST(Reporting, EnergyFigureShowsRowsAndSavings) {
  const std::vector<NamedResult> cols = {{"NATIVE", sample(700, 460)},
                                         {"SIMTY", sample(560, 310)}};
  const std::string out = render_energy_figure(cols);
  EXPECT_NE(out.find("awake (alignable)"), std::string::npos);
  EXPECT_NE(out.find("sleep (floor)"), std::string::npos);
  EXPECT_NE(out.find("NATIVE"), std::string::npos);
  EXPECT_NE(out.find("700.0"), std::string::npos);
  // 1 - 560/700 = 20%.
  EXPECT_NE(out.find("20.0%"), std::string::npos);
}

TEST(Reporting, EnergyFigureSavingIsNaWithoutBaselineAwakeEnergy) {
  // A run too short to wake (simty_run --minutes 1) spends no awake
  // energy; the saving against that baseline is undefined, not a crash.
  const std::vector<NamedResult> cols = {{"NATIVE", sample(1.5, 0)},
                                         {"SIMTY", sample(1.5, 0)}};
  const std::string out = render_energy_figure(cols);
  EXPECT_NE(out.find("| awake saving vs col 1 | n/a    | n/a   |"), std::string::npos)
      << out;
  EXPECT_NE(out.find("| total saving vs col 1 | 0.0%   | 0.0%  |"), std::string::npos)
      << out;
}

TEST(Reporting, DelayFigureShowsPercentages) {
  const std::vector<NamedResult> cols = {{"SIMTY", sample(700, 460)}};
  const std::string out = render_delay_figure(cols);
  EXPECT_NE(out.find("perceptible"), std::string::npos);
  EXPECT_NE(out.find("17.9%"), std::string::npos);
  EXPECT_NE(out.find("0.0%"), std::string::npos);
}

TEST(Reporting, WakeupTableShowsRatios) {
  const std::vector<NamedResult> cols = {{"NATIVE", sample(700, 460)}};
  const std::string out = render_wakeup_table(cols);
  EXPECT_NE(out.find("733/983"), std::string::npos);
  EXPECT_NE(out.find("443/548"), std::string::npos);
  EXPECT_NE(out.find("Accelerometer"), std::string::npos);
}

TEST(Reporting, StandbyProjection) {
  const std::vector<NamedResult> cols = {{"NATIVE", sample(700, 460)},
                                         {"SIMTY", sample(560, 310)}};
  const std::string out = render_standby_projection(cols);
  EXPECT_NE(out.find("140.0"), std::string::npos);
  EXPECT_NE(out.find("extension"), std::string::npos);
}

TEST(Reporting, GuaranteeAudit) {
  const std::vector<NamedResult> cols = {{"SIMTY", sample(700, 460)}};
  const std::string out = render_guarantee_audit(cols);
  EXPECT_NE(out.find("1.950"), std::string::npos);
}

TEST(Reporting, PagingTableOnlyRendersWhenTheScenarioRan) {
  // No paging activity anywhere: unconditionally printable empty string.
  const std::vector<NamedResult> off = {{"SIMTY", sample(700, 460)}};
  EXPECT_EQ(render_paging_table(off), "");

  RunResult r = sample(700, 460);
  r.pages_answered = 167;
  r.page_delay_avg_s = 0.626;
  r.page_delay_p95_s = 1.441;
  r.drx_listen_seconds = 37.07;
  const std::vector<NamedResult> on = {{"SIMTY+DRX", r}};
  const std::string out = render_paging_table(on);
  EXPECT_NE(out.find("pages answered"), std::string::npos);
  EXPECT_NE(out.find("167.0"), std::string::npos);
  EXPECT_NE(out.find("0.626"), std::string::npos);
  EXPECT_NE(out.find("37.07"), std::string::npos);
  EXPECT_NE(out.find("WuR triggers"), std::string::npos);
}

TEST(Reporting, CsvHasHeaderAndOneRowPerColumn) {
  const std::vector<NamedResult> cols = {{"L-NATIVE", sample(700, 460)},
                                         {"L-SIMTY", sample(560, 310)}};
  const std::string out = results_csv(cols);
  EXPECT_EQ(out.find("label,policy,awake_J"), 0u);
  int lines = 0;
  for (const char c : out) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 3);  // header + 2 rows
  EXPECT_NE(out.find("L-NATIVE"), std::string::npos);
  EXPECT_NE(out.find("733"), std::string::npos);
}

}  // namespace
}  // namespace simty::exp
