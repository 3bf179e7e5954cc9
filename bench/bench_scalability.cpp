// Ablation A4: scalability in the number of resident apps. The paper's
// intro expects "increasing the number of resident apps will accelerate
// battery depletion"; this sweep shows how total energy and wakeups grow
// with app count under EXACT / NATIVE / SIMTY and that SIMTY's advantage
// widens as the queue gets denser (more alignment opportunities).
//
// All (app count × policy × seed) sessions — 45 of them — go through one
// exp::run_sweep fan-out; per-cell means reduce in seed order, so the
// table is bit-identical to the old serial triple loop.

#include <cstdio>
#include <vector>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "exp/experiment.hpp"

using namespace simty;

int main() {
  const std::size_t kCounts[] = {4, 9, 18, 36, 64};
  const exp::PolicyKind kPolicies[] = {exp::PolicyKind::kExact,
                                       exp::PolicyKind::kNative,
                                       exp::PolicyKind::kSimty};
  const int kReps = 3;

  std::vector<exp::ExperimentConfig> batch;
  for (const std::size_t n : kCounts) {
    for (const exp::PolicyKind p : kPolicies) {
      for (int i = 0; i < kReps; ++i) {
        exp::ExperimentConfig c;
        c.policy = p;
        c.workload = exp::WorkloadKind::kSynthetic;
        c.synthetic_apps = n;
        c.system_alarms = true;
        c.seed = c.seed + static_cast<std::uint64_t>(i);
        batch.push_back(c);
      }
    }
  }
  const std::vector<exp::RunResult> all =
      exp::run_sweep(batch, exp::default_jobs());

  TextTable t("Scalability: synthetic workloads, 3-hour standby, 3 seeds");
  t.set_header({"apps", "EXACT total (J)", "NATIVE total (J)", "SIMTY total (J)",
                "SIMTY saving vs NATIVE", "NATIVE CPU wakeups", "SIMTY CPU wakeups"});
  for (std::size_t ci = 0; ci < std::size(kCounts); ++ci) {
    auto cell = [&](std::size_t pi) {
      const auto begin = all.begin() +
          static_cast<std::ptrdiff_t>((ci * std::size(kPolicies) + pi) * kReps);
      return exp::average_results(
          std::vector<exp::RunResult>(begin, begin + kReps));
    };
    const exp::RunResult exact = cell(0);
    const exp::RunResult native = cell(1);
    const exp::RunResult simty = cell(2);
    auto cpu = [](const exp::RunResult& r) { return exp::cpu_wakeups(r).actual; };
    t.add_row({str_format("%zu", kCounts[ci]),
               str_format("%.1f", exact.energy.total().joules_f()),
               str_format("%.1f", native.energy.total().joules_f()),
               str_format("%.1f", simty.energy.total().joules_f()),
               percent(1.0 - simty.energy.total().ratio(native.energy.total())),
               str_format("%.0f", cpu(native)), str_format("%.0f", cpu(simty))});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}
