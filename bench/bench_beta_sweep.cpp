// Ablation A1: the grace factor beta (§3.1.2 design choice). Sweeps beta
// from the Android default window factor (0.75) to the paper's 0.96 and
// reports the energy/delay trade-off under SIMTY. Expectation: energy falls
// and imperceptible delay grows monotonically (roughly) with beta; the
// guarantee bound (1 + beta) ReIn is respected everywhere.
//
// The whole sweep (NATIVE baseline + every beta, × kReps seeds) is fanned
// out through exp::run_sweep; the per-group reductions happen in seed
// order, so the numbers are bit-identical to the old serial loops.

#include <cstdio>
#include <vector>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "exp/experiment.hpp"

using namespace simty;

namespace {

// Appends kReps seeded copies of `c` (seeds seed, seed+1, ...), mirroring
// run_repeated's seed schedule.
void add_reps(std::vector<exp::ExperimentConfig>& batch,
              const exp::ExperimentConfig& c, int reps) {
  for (int i = 0; i < reps; ++i) {
    batch.push_back(c);
    batch.back().seed = c.seed + static_cast<std::uint64_t>(i);
  }
}

exp::RunResult group_mean(const std::vector<exp::RunResult>& all,
                          std::size_t group, int reps) {
  const auto begin = all.begin() + static_cast<std::ptrdiff_t>(group) * reps;
  return exp::average_results(std::vector<exp::RunResult>(begin, begin + reps));
}

}  // namespace

int main() {
  const double kBetas[] = {0.75, 0.80, 0.85, 0.90, 0.96};
  const int kReps = 3;
  const int kJobs = exp::default_jobs();

  for (const exp::WorkloadKind workload :
       {exp::WorkloadKind::kLight, exp::WorkloadKind::kHeavy}) {
    std::vector<exp::ExperimentConfig> batch;
    exp::ExperimentConfig native_cfg;
    native_cfg.policy = exp::PolicyKind::kNative;
    native_cfg.workload = workload;
    add_reps(batch, native_cfg, kReps);
    for (const double beta : kBetas) {
      exp::ExperimentConfig c;
      c.policy = exp::PolicyKind::kSimty;
      c.workload = workload;
      c.beta = beta;
      add_reps(batch, c, kReps);
    }
    const std::vector<exp::RunResult> all = exp::run_sweep(batch, kJobs);
    const exp::RunResult native = group_mean(all, 0, kReps);

    TextTable t(std::string("Beta sweep, ") + to_string(workload) +
                " workload (SIMTY vs NATIVE baseline)");
    t.set_header({"beta", "total (J)", "saving vs NATIVE", "awake (J)",
                  "imperceptible delay", "worst gap/ReIn", "violations"});
    for (std::size_t b = 0; b < std::size(kBetas); ++b) {
      const exp::RunResult r = group_mean(all, b + 1, kReps);
      t.add_row({str_format("%.2f", kBetas[b]),
                 str_format("%.1f", r.energy.total().joules_f()),
                 percent(1.0 - r.energy.total().ratio(native.energy.total())),
                 str_format("%.1f", r.energy.awake_total().joules_f()),
                 percent(r.delay_imperceptible),
                 str_format("%.3f", r.worst_gap_ratio),
                 str_format("%llu", static_cast<unsigned long long>(r.gap_violations))});
    }
    std::printf("%s(NATIVE total: %.1f J)\n\n", t.render().c_str(),
                native.energy.total().joules_f());
  }
  return 0;
}
