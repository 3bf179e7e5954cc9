// Ablation A9: standby time measured by direct depletion instead of
// projection — chains 3-hour standby segments against the Nexus 5 pack
// until it is empty. Reproduces the headline claim ("SIMTY prolongs the
// smartphone's standby time by one-fourth to one-third") and evaluates the
// battery-aware adaptive grace controller (ref [13] flavour).

#include <cstdio>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "experiments/adaptive.hpp"

using namespace simty;

int main() {
  exp::ExperimentConfig base;
  base.workload = exp::WorkloadKind::kLight;
  base.duration = Duration::hours(3);

  const exp::AdaptiveBetaController adaptive =
      exp::AdaptiveBetaController::default_profile();

  struct Variant {
    const char* label;
    exp::PolicyKind policy;
    double beta;
    const exp::AdaptiveBetaController* controller;
  };
  const Variant kVariants[] = {
      {"NATIVE", exp::PolicyKind::kNative, 0.96, nullptr},
      {"SIMTY beta=0.80", exp::PolicyKind::kSimty, 0.80, nullptr},
      {"SIMTY beta=0.96 (paper)", exp::PolicyKind::kSimty, 0.96, nullptr},
      {"SIMTY adaptive beta", exp::PolicyKind::kSimty, 0.96, &adaptive},
  };

  TextTable t("Standby-until-depletion, light workload, 2300 mAh pack");
  t.set_header({"Variant", "standby (h)", "segments", "extension vs NATIVE",
                "final-segment delay"});
  double native_hours = 0.0;
  for (const Variant& v : kVariants) {
    exp::ExperimentConfig c = base;
    c.policy = v.policy;
    c.beta = v.beta;
    const exp::DepletionResult r =
        exp::run_until_depleted(c, hw::Battery::nexus5(), v.controller);
    const double hours = r.standby_time.seconds_f() / 3600.0;
    if (native_hours == 0.0) native_hours = hours;
    t.add_row({v.label, str_format("%.1f", hours),
               str_format("%zu", r.history.size()),
               percent(hours / native_hours - 1.0),
               percent(r.history.back().delay_imperceptible)});
  }
  std::printf("%s", t.render().c_str());
  std::printf("\nThe adaptive controller spends most of the discharge curve at a\n"
              "gentle beta = 0.80 and only escalates postponement below 50%% and\n"
              "20%% charge — trading a little standby time for lower delays while\n"
              "the battery is comfortable.\n");
  return 0;
}
