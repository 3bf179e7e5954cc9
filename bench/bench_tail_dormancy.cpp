// Ablation A12: radio tails and fast dormancy (ref [12]). The calibrated
// model powers components down on release; real radios linger in a
// high-power tail. Sweeping a Wi-Fi tail shows (a) tails inflate standby
// energy under both policies, (b) alignment grows MORE valuable with
// tails (batched syncs share one tail; warm starts skip activation), and
// (c) fast dormancy (ref [12]'s lever, here simply a 300 ms model tail)
// composes with alignment rather than replacing it.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/parallel_map.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "exp/run.hpp"

using namespace simty;

namespace {

const int kReps = 3;

struct Outcome {
  double total_j = 0.0;
  double warm_starts = 0.0;
  double tail_seconds = 0.0;
};

// The kReps seeds of one policy at one Wi-Fi tail, as configs.
void add_reps(std::vector<exp::ExperimentConfig>& configs, exp::PolicyKind policy,
              Duration tail) {
  for (int i = 0; i < kReps; ++i) {
    exp::ExperimentConfig& c = configs.emplace_back();
    c.policy = policy;
    c.system_alarms = false;
    c.seed = static_cast<std::uint64_t>(i + 1);
    c.power_model.component(hw::Component::kWifi).tail = tail;
    c.power_model.component(hw::Component::kWifi).tail_power = Power::milliwatts(120);
  }
}

// Wi-Fi warm starts and tail time are component state, not RunResult
// scalars, so each seed runs as an exp::Run.
Outcome run(const exp::ExperimentConfig& c) {
  exp::Run run(c);
  const exp::RunResult r = run.finish();
  const hw::ComponentUsage& wifi = run.wakelocks().usage(hw::Component::kWifi);
  return Outcome{r.energy.total().joules_f(), static_cast<double>(wifi.warm_starts),
                 wifi.tail_time.seconds_f()};
}

// The mean over the kReps seeds starting at outcomes[first].
Outcome averaged(const std::vector<Outcome>& outcomes, std::size_t first) {
  Outcome sum;
  for (std::size_t i = first; i < first + kReps; ++i) {
    sum.total_j += outcomes[i].total_j / kReps;
    sum.warm_starts += outcomes[i].warm_starts / kReps;
    sum.tail_seconds += outcomes[i].tail_seconds / kReps;
  }
  return sum;
}

}  // namespace

int main() {
  struct Row {
    Duration tail;
    bool fast_dormancy;
    std::size_t model;  // index of the row's model tail in `model_tails`
  };
  std::vector<Row> rows;
  // Every fast-dormancy row runs the same 300 ms model tail, so each
  // distinct model tail runs once and the rows share its outcomes.
  std::vector<Duration> model_tails;
  for (const std::int64_t tail_ms : {0, 500, 1500, 3000}) {
    for (const bool fd : {false, true}) {
      if (tail_ms == 0 && fd) continue;  // nothing to truncate
      const Duration tail = Duration::millis(tail_ms);
      const Duration model_tail = fd ? Duration::millis(300) : tail;
      auto it = std::find(model_tails.begin(), model_tails.end(), model_tail);
      if (it == model_tails.end()) it = model_tails.insert(it, model_tail);
      rows.push_back(Row{tail, fd, static_cast<std::size_t>(it - model_tails.begin())});
    }
  }
  std::vector<exp::ExperimentConfig> configs;
  for (const Duration model_tail : model_tails) {
    add_reps(configs, exp::PolicyKind::kNative, model_tail);
    add_reps(configs, exp::PolicyKind::kSimty, model_tail);
  }
  const std::vector<Outcome> outcomes =
      common::parallel_map(configs.size(), exp::default_jobs(),
                           [&configs](std::size_t i) { return run(configs[i]); });

  TextTable t("Wi-Fi tail sweep (light workload, 3 h, 3 seeds)");
  t.set_header({"tail", "fast dormancy", "NATIVE (J)", "SIMTY (J)", "SIMTY saving",
                "SIMTY warm starts", "SIMTY tail time (s)"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Outcome native = averaged(outcomes, 2 * kReps * rows[i].model);
    const Outcome simty = averaged(outcomes, 2 * kReps * rows[i].model + kReps);
    t.add_row({rows[i].tail.to_string(), rows[i].fast_dormancy ? "on (300ms)" : "off",
               str_format("%.1f", native.total_j), str_format("%.1f", simty.total_j),
               percent(1.0 - simty.total_j / native.total_j),
               str_format("%.0f", simty.warm_starts),
               str_format("%.0f", simty.tail_seconds)});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}
