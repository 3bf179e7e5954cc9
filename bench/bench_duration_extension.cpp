// Ablation A3: the duration-similarity extension (§5 future work). On
// workloads where same-hardware alarms have widely differing hold times,
// preferring entries with similar expected holds amortizes more component
// on-time. Compares SIMTY vs SIMTY-DUR on the heavy workload and on a
// duration-diverse synthetic workload.

#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "exp/experiment.hpp"

using namespace simty;

namespace {

/// A workload built to stress duration similarity: ten Wi-Fi apps with the
/// same ReIn band but bimodal holds — five quick 1 s heartbeats and five
/// 12 s bulk syncs. Aligning a bulk sync onto a heartbeat entry wastes
/// little; aligning bulk with bulk amortizes 12 s of radio.
std::vector<apps::AppProfile> bimodal_profiles() {
  std::vector<apps::AppProfile> out;
  for (int i = 0; i < 10; ++i) {
    apps::AppProfile p;
    p.name = (i % 2 == 0 ? "quick" : "bulk") + std::to_string(i);
    p.repeat = Duration::seconds(240 + 30 * (i / 2));
    p.alpha = 0.0;
    p.mode = alarm::RepeatMode::kStatic;
    p.hardware = hw::ComponentSet{hw::Component::kWifi};
    p.base_hold = i % 2 == 0 ? Duration::seconds(1) : Duration::seconds(12);
    p.hold_jitter = 0.1;
    out.push_back(p);
  }
  return out;
}

exp::RunResult run(exp::PolicyKind policy, exp::WorkloadKind workload,
                   std::size_t apps) {
  exp::ExperimentConfig c;
  c.policy = policy;
  c.workload = workload;
  c.synthetic_apps = apps;
  return exp::run_repeated(c, 3, exp::default_jobs());
}

void compare(const char* title, exp::WorkloadKind workload, std::size_t apps) {
  const exp::RunResult base = run(exp::PolicyKind::kSimty, workload, apps);
  const exp::RunResult dur = run(exp::PolicyKind::kSimtyDuration, workload, apps);
  TextTable t(title);
  t.set_header({"Policy", "total (J)", "awake (J)", "CPU wakeups",
                "imperceptible delay"});
  for (const auto* r : {&base, &dur}) {
    t.add_row({r->policy_name, str_format("%.1f", r->energy.total().joules_f()),
               str_format("%.1f", r->energy.awake_total().joules_f()),
               str_format("%.0f", exp::cpu_wakeups(*r).actual),
               percent(r->delay_imperceptible)});
  }
  t.add_row({"delta", percent(1.0 - dur.energy.total().ratio(base.energy.total())),
             percent(1.0 - dur.energy.awake_total().ratio(base.energy.awake_total())),
             "", ""});
  std::printf("%s\n", t.render().c_str());
}

}  // namespace

int main() {
  compare("Duration-similarity extension: heavy workload", exp::WorkloadKind::kHeavy,
          18);
  compare("Duration-similarity extension: synthetic 32-app workload",
          exp::WorkloadKind::kSynthetic, 32);

  // The stress case the extension was designed for: bimodal holds.
  const int jobs = exp::default_jobs();
  exp::ExperimentConfig c;
  c.custom_profiles = bimodal_profiles();
  c.system_alarms = false;
  c.policy = exp::PolicyKind::kSimty;
  const double base = exp::run_repeated(c, 3, jobs).energy.total().joules_f();
  c.policy = exp::PolicyKind::kSimtyDuration;
  const double dur = exp::run_repeated(c, 3, jobs).energy.total().joules_f();
  TextTable t("Duration-similarity extension: bimodal-hold workload (5x1s + 5x12s Wi-Fi)");
  t.set_header({"Policy", "total (J)"});
  t.add_row({"SIMTY", str_format("%.1f", base)});
  t.add_row({"SIMTY-DUR", str_format("%.1f", dur)});
  t.add_row({"delta", percent(1.0 - dur / base)});
  std::printf("%s\n", t.render().c_str());
  return 0;
}
