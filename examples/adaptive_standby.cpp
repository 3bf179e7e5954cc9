// Battery-aware standby: runs the light workload until the pack is empty,
// letting the adaptive controller escalate the grace factor as the charge
// falls (gentle postponement while full, aggressive when nearly empty —
// the ref [13] idea applied to SIMTY's beta knob).

#include <cstdio>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "experiments/adaptive.hpp"

using namespace simty;

int main() {
  exp::ExperimentConfig base;
  base.policy = exp::PolicyKind::kSimty;
  base.workload = exp::WorkloadKind::kLight;
  base.duration = Duration::hours(3);

  const exp::AdaptiveBetaController controller =
      exp::AdaptiveBetaController::default_profile();

  std::printf("draining a full 2300 mAh pack in 3 h standby segments...\n\n");
  const exp::DepletionResult r =
      exp::run_until_depleted(base, hw::Battery::nexus5(), &controller);

  TextTable t("Discharge curve (every 5th segment)");
  t.set_header({"segment", "charge at start", "beta", "segment energy (J)",
                "imperceptible delay"});
  for (std::size_t i = 0; i < r.history.size(); ++i) {
    if (i % 5 != 0 && i + 1 != r.history.size()) continue;
    const exp::DepletionSegment& s = r.history[i];
    t.add_row({str_format("%zu", i + 1), percent(s.soc_start, 0),
               str_format("%.2f", s.beta), str_format("%.1f", s.consumed.joules_f()),
               percent(s.delay_imperceptible)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("standby achieved: %.1f h over %zu segments (%s)\n",
              r.standby_time.seconds_f() / 3600.0, r.history.size(),
              r.depleted ? "pack depleted" : "segment cap reached");
  return 0;
}
