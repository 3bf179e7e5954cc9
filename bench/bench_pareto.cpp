// Ablation A16: the energy/freshness Pareto frontier (the trade-off space
// of ref [8], applied to wakeup management). Two sections, CSV on stdout
// for plotting:
//
//   1. The uplink frontier: sweeps beta finely and plots (total energy,
//      average imperceptible delay) for SIMTY against the EXACT / NATIVE /
//      doze-free anchors.
//   2. The downlink paging frontier (Rostami et al., arXiv 2001.00914):
//      with a DRX scenario enabled, sweeps the paging cycle (DRX-only) and
//      the wake-up-receiver delay budget (WUR) and plots (total energy,
//      page-answer delay) against NATIVE / SIMTY / FIXED anchors. At equal
//      delay budgets — DRX cycle C vs WUR budget C — the WUR rows must
//      dominate: same page-delay bound, strictly less listen energy.
//
// The bench exits 1 if any WUR point fails to dominate. Every printed
// ratio is pure simulation output, and the whole stdout is pinned exactly
// by tests/bench/table_pins_test.cpp.
//
// The WUR config is also run once serially and once through the parallel
// runner and compared field-by-field: a divergence fails the bench, making
// the serial-vs---jobs determinism contract an executed check, not a
// comment.

#include <cstdio>
#include <vector>

#include "exp/experiment.hpp"

using namespace simty;

namespace {

constexpr int kReps = 3;

/// Energy the paging path itself spent listening: DRX bills the main radio
/// for every on-duration, the WUR bills its own rail plus a decode impulse
/// per trigger. This is the component the two modes trade against each
/// other at a fixed delay budget.
double listen_energy_j(const exp::RunResult& r, const net::DrxConfig& drx,
                       const hw::WurConfig& wur) {
  return (r.drx_listen_seconds * drx.listen.mw() +
          r.wur_listen_seconds * wur.listen.mw()) / 1e3 +
         r.wur_triggers * wur.wake_trigger.joules_f();
}

/// Exact equality across every field the paging frontier consumes; any
/// mismatch disqualifies the parallel path.
bool identical(const exp::RunResult& a, const exp::RunResult& b) {
  return a.energy.total().mj() == b.energy.total().mj() &&
         a.average_power_mw == b.average_power_mw &&
         a.delay_imperceptible == b.delay_imperceptible &&
         a.pages_answered == b.pages_answered &&
         a.page_delay_avg_s == b.page_delay_avg_s &&
         a.page_delay_p95_s == b.page_delay_p95_s &&
         a.drx_listen_seconds == b.drx_listen_seconds &&
         a.wur_listen_seconds == b.wur_listen_seconds &&
         a.wur_triggers == b.wur_triggers;
}

}  // namespace

int main() {
  const int kJobs = exp::default_jobs();

  // --- Section 1: uplink beta frontier (unchanged shape). ---
  std::printf("workload,variant,beta,total_J,delay_imperceptible,delay_p95\n");
  for (const exp::WorkloadKind workload :
       {exp::WorkloadKind::kLight, exp::WorkloadKind::kHeavy}) {
    auto emit = [&](const char* variant, double beta, const exp::RunResult& r) {
      std::printf("%s,%s,%.3f,%.2f,%.5f,%.5f\n", to_string(workload), variant, beta,
                  r.energy.total().joules_f(), r.delay_imperceptible,
                  r.delay_imperceptible_p95);
    };
    exp::ExperimentConfig c;
    c.workload = workload;
    c.policy = exp::PolicyKind::kExact;
    emit("EXACT", 0.0, exp::run_repeated(c, kReps, kJobs));
    c.policy = exp::PolicyKind::kNative;
    emit("NATIVE", 0.0, exp::run_repeated(c, kReps, kJobs));
    c.policy = exp::PolicyKind::kSimty;
    for (const double beta : {0.75, 0.78, 0.81, 0.84, 0.87, 0.90, 0.93, 0.96}) {
      c.beta = beta;
      emit("SIMTY", beta, exp::run_repeated(c, kReps, kJobs));
    }
  }

  // --- Section 2: downlink paging frontier. ---
  std::printf("\nscenario,variant,cycle_ms,budget_s,total_J,pages,"
              "page_delay_avg_s,page_delay_p95_s,listen_J\n");

  auto paging_config = [](exp::PolicyKind policy) {
    exp::ExperimentConfig c;
    c.workload = exp::WorkloadKind::kLight;
    c.policy = policy;
    c.drx.emplace();  // LTE/NR-ish defaults: 1.28 s cycle, 10 ms on-duration
    return c;
  };
  auto emit = [&](const char* scenario, const char* variant,
                  const exp::ExperimentConfig& c, const exp::RunResult& r) {
    std::printf("%s,%s,%.0f,%.2f,%.2f,%.1f,%.5f,%.5f,%.4f\n", scenario, variant,
                c.drx->paging_cycle.seconds_f() * 1e3,
                c.drx->wur ? c.drx->wur_delay_budget.seconds_f() : 0.0,
                r.energy.total().joules_f(), r.pages_answered, r.page_delay_avg_s,
                r.page_delay_p95_s, listen_energy_j(r, *c.drx, c.wur));
  };

  // Anchors: the three uplink policies on the default DRX scenario.
  for (const auto& [name, policy] :
       {std::pair{"NATIVE", exp::PolicyKind::kNative},
        std::pair{"SIMTY", exp::PolicyKind::kSimty},
        std::pair{"FIXED", exp::PolicyKind::kFixedInterval}}) {
    const exp::ExperimentConfig c = paging_config(policy);
    emit("anchor", name, c, exp::run_repeated(c, kReps, kJobs));
  }

  // DRX-only cycle sweep: the network-side delay knob. Longer cycles listen
  // less but queue pages longer; 2.56 s is the NR paging-cycle ceiling.
  const double kCyclesMs[] = {320.0, 640.0, 1280.0, 2560.0};
  std::vector<exp::RunResult> drx_rows;
  std::vector<exp::ExperimentConfig> drx_cfgs;
  for (const double cycle_ms : kCyclesMs) {
    exp::ExperimentConfig c = paging_config(exp::PolicyKind::kSimty);
    c.drx->paging_cycle = Duration::millis(static_cast<std::int64_t>(cycle_ms));
    drx_cfgs.push_back(c);
    drx_rows.push_back(exp::run_repeated(c, kReps, kJobs));
    emit("drx", "SIMTY+DRX", c, drx_rows.back());
  }

  // WUR budget sweep: the device-side delay knob. The first three budgets
  // mirror the DRX cycles above (equal delay budgets — the dominance
  // comparison); the long tail shows batching gains DRX cannot reach.
  const double kBudgetsS[] = {0.32, 0.64, 1.28, 2.56, 10.0, 60.0};
  std::vector<exp::RunResult> wur_rows;
  std::vector<exp::ExperimentConfig> wur_cfgs;
  for (const double budget_s : kBudgetsS) {
    exp::ExperimentConfig c = paging_config(exp::PolicyKind::kSimty);
    c.drx->wur = true;
    c.drx->wur_delay_budget = Duration::millis(static_cast<std::int64_t>(budget_s * 1e3));
    wur_cfgs.push_back(c);
    wur_rows.push_back(exp::run_repeated(c, kReps, kJobs));
    emit("wur", "SIMTY+WUR", c, wur_rows.back());
  }

  // Serial vs --jobs determinism: the WUR 1.28 s point, both paths.
  if (kJobs > 1) {
    const exp::RunResult serial = exp::run_repeated(wur_cfgs[2], kReps, 1);
    if (!identical(serial, wur_rows[2])) {
      std::fprintf(stderr,
                   "error: WUR paging run diverged between serial and "
                   "--jobs %d paths\n", kJobs);
      return 1;
    }
  }

  // Dominance at equal delay budgets: DRX cycle C vs WUR budget C. The
  // total-energy ratio must stay above 1 (the WUR point is on the frontier)
  // and the listen-energy ratio is the headline order-of-magnitude saving.
  bool dominated = true;
  for (std::size_t i = 0; i < 4; ++i) {
    // kCyclesMs[i] pairs with kBudgetsS[j]: 320<->0.32, 640<->0.64, ...
    const std::size_t j = i;
    const double total_ratio = drx_rows[i].energy.total().joules_f() /
                               wur_rows[j].energy.total().joules_f();
    const double listen_ratio =
        listen_energy_j(drx_rows[i], *drx_cfgs[i].drx, drx_cfgs[i].wur) /
        listen_energy_j(wur_rows[j], *wur_cfgs[j].drx, wur_cfgs[j].wur);
    std::printf("equal-delay %4.0f ms: total %.2fx  listen %.2fx\n",
                kCyclesMs[i], total_ratio, listen_ratio);
    if (total_ratio <= 1.0 || listen_ratio <= 1.0) dominated = false;
  }
  if (!dominated) {
    std::fprintf(stderr,
                 "error: a WUR point failed to dominate its equal-delay "
                 "DRX point\n");
    return 1;
  }
  return 0;
}
