// Ablation A6: the fixed-interval "immediate remedy" of ref [5] that the
// paper's intro cites as motivation for centralized wakeup management.
// Sweeps the slot length and brackets FIXED between NATIVE (too timid) and
// SIMTY (similarity-aware). Expectation: FIXED recovers much of the wakeup
// reduction at coarse slots but never matches SIMTY's hardware-aware
// alignment, and its benefit collapses at fine slots.

#include <cstdio>
#include <vector>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "exp/experiment.hpp"

using namespace simty;

int main() {
  std::vector<exp::ExperimentConfig> configs;
  const auto add = [&configs](exp::PolicyKind policy) -> exp::ExperimentConfig& {
    exp::ExperimentConfig& c = configs.emplace_back();
    c.policy = policy;
    c.workload = exp::WorkloadKind::kHeavy;
    c.system_alarms = false;
    return c;
  };
  add(exp::PolicyKind::kNative);
  for (const std::int64_t slot_s : {30, 60, 120, 300, 600}) {
    add(exp::PolicyKind::kFixedInterval).fixed_interval = Duration::seconds(slot_s);
  }
  add(exp::PolicyKind::kSimty);

  std::vector<exp::RunResult> outcomes;
  for (const exp::ExperimentConfig& c : configs) {
    outcomes.push_back(exp::run_repeated(c, 3, exp::default_jobs()));
  }

  const Energy native_total = outcomes.front().energy.total();
  TextTable t("Fixed-interval remedy (ref [5]) vs NATIVE and SIMTY — heavy workload, 3 h");
  t.set_header({"Policy", "total (J)", "saving vs NATIVE", "CPU wakeups"});
  for (const exp::RunResult& r : outcomes) {
    t.add_row({r.policy_name, str_format("%.1f", r.energy.total().joules_f()),
               percent(1.0 - r.energy.total().ratio(native_total)),
               str_format("%.0f", exp::cpu_wakeups(r).actual)});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}
