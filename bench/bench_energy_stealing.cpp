// Ablation A7: per-app energy attribution — the "energy stealing"
// perspective of ref [5] (ISLPED'15), which the paper builds on. Ranks the
// 18 apps by their estimated standby-energy bill under NATIVE and SIMTY
// and shows where SIMTY's savings land (the WPS trackers and the dense
// messengers benefit most; the perceptible notifiers barely move).

#include <cstdio>
#include <map>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "exp/run.hpp"
#include "experiments/app_attribution.hpp"

using namespace simty;

namespace {

std::map<std::string, double> tag_energy(exp::PolicyKind policy) {
  power::AppEnergyAttributor attributor(hw::PowerModel::nexus5());
  exp::ExperimentConfig c;
  c.policy = policy;
  c.workload = exp::WorkloadKind::kHeavy;
  exp::Run run(c);
  run.alarm_manager().add_session_observer(attributor.observer());
  (void)run.finish();
  std::map<std::string, double> out;
  for (const power::EnergyShare& s : attributor.by_tag()) {
    out[s.label] = s.energy.joules_f();
  }
  return out;
}

}  // namespace

int main() {
  const auto native = tag_energy(exp::PolicyKind::kNative);
  const auto simty = tag_energy(exp::PolicyKind::kSimty);

  // Order rows by NATIVE bill, descending.
  std::vector<std::pair<std::string, double>> rows(native.begin(), native.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  TextTable t("Estimated per-alarm energy bill (J), heavy workload, 3 h, one seed");
  t.set_header({"Alarm", "NATIVE", "SIMTY", "saving"});
  double native_total = 0.0, simty_total = 0.0;
  for (const auto& [tag, native_j] : rows) {
    const auto it = simty.find(tag);
    const double simty_j = it == simty.end() ? 0.0 : it->second;
    native_total += native_j;
    simty_total += simty_j;
    t.add_row({tag, str_format("%.1f", native_j), str_format("%.1f", simty_j),
               native_j > 0 ? percent(1.0 - simty_j / native_j) : "-"});
  }
  t.add_separator();
  t.add_row({"total attributed", str_format("%.1f", native_total),
             str_format("%.1f", simty_total),
             percent(1.0 - simty_total / native_total)});
  std::printf("%s", t.render().c_str());
  std::printf("\nAttribution is a batterystats-style estimate reconstructed from\n"
              "the power model; it reconciles with the measured awake energy\n"
              "within ~20%% (see AppEnergyAttributor::reconcile tests).\n");
  return 0;
}
