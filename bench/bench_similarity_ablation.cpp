// Ablation A2: similarity-classification granularity (§3.1.1 discusses
// 2-, 3- and 4-level hardware similarity as design alternatives) plus the
// policy family: EXACT (no alignment), NATIVE (time-window only), SIMTY
// under each hardware-similarity mode, and the duration extension.
// Expectation: every SIMTY variant beats NATIVE beats EXACT; granularity
// moves the needle only modestly because the heavy workload's hardware
// sets are mostly singletons.

#include <cstdio>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "exp/experiment.hpp"

using namespace simty;

namespace {

exp::RunResult run(exp::PolicyKind policy, alarm::HardwareSimilarityMode mode,
                   alarm::TimeSimilarityMode time_mode =
                       alarm::TimeSimilarityMode::kThreeLevel) {
  exp::ExperimentConfig c;
  c.policy = policy;
  c.similarity.hw_mode = mode;
  c.similarity.time_mode = time_mode;
  c.workload = exp::WorkloadKind::kHeavy;
  return exp::run_repeated(c, 3);
}

}  // namespace

int main() {
  struct Variant {
    const char* label;
    exp::PolicyKind policy;
    alarm::HardwareSimilarityMode mode;
  };
  const Variant kVariants[] = {
      {"EXACT (no alignment)", exp::PolicyKind::kExact,
       alarm::HardwareSimilarityMode::kThreeLevel},
      {"NATIVE", exp::PolicyKind::kNative, alarm::HardwareSimilarityMode::kThreeLevel},
      {"SIMTY 2-level hw", exp::PolicyKind::kSimty,
       alarm::HardwareSimilarityMode::kTwoLevel},
      {"SIMTY 3-level hw (paper)", exp::PolicyKind::kSimty,
       alarm::HardwareSimilarityMode::kThreeLevel},
      {"SIMTY 4-level hw", exp::PolicyKind::kSimty,
       alarm::HardwareSimilarityMode::kFourLevel},
      {"SIMTY-DUR (section 5)", exp::PolicyKind::kSimtyDuration,
       alarm::HardwareSimilarityMode::kThreeLevel},
  };

  // The decomposition row: SIMTY without grace credit (window-only time
  // similarity) keeps the hardware-aware selection but loses the
  // postponement freedom — the gap to full SIMTY is the grace interval's
  // contribution.
  const exp::RunResult window_only =
      run(exp::PolicyKind::kSimty, alarm::HardwareSimilarityMode::kThreeLevel,
          alarm::TimeSimilarityMode::kWindowOnly);

  TextTable t("Similarity-granularity ablation (heavy workload, 3 seeds)");
  t.set_header({"Variant", "total (J)", "awake (J)", "CPU wakeups",
                "Wi-Fi cycles", "WPS cycles", "imperceptible delay"});
  auto add_row = [&t](const char* label, const exp::RunResult& r) {
    auto cycles = [&r](const char* hardware) {
      for (const auto& w : r.wakeups) {
        if (w.hardware == hardware) return w.actual;
      }
      return 0.0;
    };
    t.add_row({label, str_format("%.1f", r.energy.total().joules_f()),
               str_format("%.1f", r.energy.awake_total().joules_f()),
               str_format("%.0f", exp::cpu_wakeups(r).actual),
               str_format("%.0f", cycles("Wi-Fi")), str_format("%.0f", cycles("WPS")),
               percent(r.delay_imperceptible)});
  };
  for (const Variant& v : kVariants) add_row(v.label, run(v.policy, v.mode));
  add_row("SIMTY window-only time", window_only);
  std::printf("%s", t.render().c_str());
  return 0;
}
