// simty_run: command-line driver for connected-standby experiments.
//
//   simty_run --workload heavy --policy all --hours 3 --reps 3 --csv out.csv
//
// Snapshot mode splits one run across two invocations:
//
//   simty_run --policy all --snapshot-at 60 --save-snapshot snap ...
//   simty_run --policy all --restore-snapshot snap ...
//
// The save invocation pauses each policy's base-seed run at its first
// quiescent instant past the mark and writes snap.<POLICY>; the restore
// invocation resumes each file to the horizon and reports as usual. With
// matching capture flags the resumed --delivery-log / --trace outputs are
// byte-identical to a straight run's (the CI snapshot-determinism job
// `cmp`s exactly that).

#include <cstdio>
#include <exception>
#include <memory>

#include "cli/options.hpp"
#include "fleet/fleet_runner.hpp"
#include "fleet/report.hpp"
#include "power/monitor.hpp"
#include "exp/reporting.hpp"
#include "exp/run.hpp"
// The IWYU heuristic only sees classes and definitions, not declared free
// functions (read_file / write_file / write_file_atomic are what's used here).
#include "snapshot/snapshot.hpp"  // simty-analyze: allow(include)
#include "trace/delivery_log.hpp"
#include "trace/tracer.hpp"

using namespace simty;

namespace {

// Writes one output file; on failure prints the error and returns false.
bool write_output(const std::string& path, const std::string& content) {
  try {
    snapshot::write_file(path, content);
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return false;
  }
}

// Writes the --trace and --trace-json outputs; false after an error.
bool write_traces(const cli::RunPlan& plan, const trace::Tracer& tracer) {
  if (plan.trace_path) {
    if (!write_output(*plan.trace_path, tracer.binary())) return false;
    std::printf("run trace (%zu events) written to %s\n", tracer.size(),
                plan.trace_path->c_str());
  }
  if (plan.trace_json_path) {
    if (!write_output(*plan.trace_json_path, tracer.chrome_json())) return false;
    std::printf("chrome trace (%zu events) written to %s\n", tracer.size(),
                plan.trace_json_path->c_str());
  }
  return true;
}

std::string snapshot_path(const std::string& base, exp::PolicyKind policy) {
  return base + "." + exp::to_string(policy);
}

// Mirrors the capture wiring of the reporting loop below so the snapshot
// carries the same sections the restore invocation will expect: captures
// serialize with the run, and restore_snapshot cross-checks section layout
// against the restoring config.
void wire_last_policy_captures(const cli::RunPlan& plan, bool last,
                               exp::ExperimentConfig& c,
                               trace::Tracer& tracer) {
  if (!last) return;
  if (plan.trace_path || plan.trace_json_path) c.tracer = &tracer;
  if (plan.delivery_log_path) c.capture_delivery_log = true;
}

// Fleet mode: one population run per policy; per-device cohorts govern the
// workload and duration (the scalar --workload/--hours flags don't apply).
int run_fleet_mode(const cli::RunPlan& plan, trace::Tracer& tracer) {
  std::vector<fleet::CohortSpec> cohorts;
  try {
    cohorts = plan.cohorts_path ? fleet::load_cohort_file(*plan.cohorts_path)
                                : fleet::default_cohorts();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::printf("fleet: %llu devices, %zu cohorts, seed %llu, jobs %d\n\n",
              static_cast<unsigned long long>(*plan.fleet_devices),
              cohorts.size(),
              static_cast<unsigned long long>(plan.config.seed), plan.jobs);
  std::vector<fleet::FleetResult> results;
  for (std::size_t i = 0; i < plan.policies.size(); ++i) {
    fleet::FleetConfig fc;
    fc.cohorts = cohorts;
    fc.devices = *plan.fleet_devices;
    fc.policy = plan.policies[i];
    fc.similarity = plan.config.similarity;
    fc.seed = plan.config.seed;
    fc.jobs = plan.jobs;
    const bool last = i + 1 == plan.policies.size();
    if (last && (plan.trace_path || plan.trace_json_path)) fc.tracer = &tracer;
    results.push_back(fleet::run_fleet(fc));
    std::printf("%s\n", fleet::render_fleet_report(results.back()).c_str());
  }
  if (plan.fleet_csv_path) {
    if (!write_output(*plan.fleet_csv_path, fleet::fleet_csv(results))) return 1;
    std::printf("fleet csv written to %s\n", plan.fleet_csv_path->c_str());
  }
  return write_traces(plan, tracer) ? 0 : 1;
}

// Snapshot save mode: pause each policy's base-seed run at its first
// quiescent instant past --snapshot-at and write PATH.<POLICY>. No report,
// no capture output — the trace/delivery-log flags only shape what the
// snapshot carries (see wire_last_policy_captures).
int run_save_mode(const cli::RunPlan& plan, trace::Tracer& tracer) {
  const TimePoint mark = TimePoint::origin() + *plan.snapshot_at;
  for (std::size_t i = 0; i < plan.policies.size(); ++i) {
    exp::ExperimentConfig c = plan.config;
    c.policy = plan.policies[i];
    wire_last_policy_captures(plan, i + 1 == plan.policies.size(), c, tracer);
    exp::Run run(c);
    const TimePoint reached = run.advance_to_quiescent(mark);
    const std::string path = snapshot_path(*plan.save_snapshot_path, c.policy);
    try {
      snapshot::write_file_atomic(path, run.save_snapshot());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("snapshot %s: paused at %s, written to %s\n",
                exp::to_string(c.policy),
                (reached - TimePoint::origin()).to_string().c_str(),
                path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const cli::ParseResult parsed = cli::parse_args(args);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.error.c_str());
    return 2;
  }
  const cli::RunPlan& plan = *parsed.plan;
  if (plan.show_help) {
    std::printf("%s", cli::usage().c_str());
    return 0;
  }

  trace::Tracer tracer;
  if (plan.fleet_devices) return run_fleet_mode(plan, tracer);
  if (plan.save_snapshot_path) return run_save_mode(plan, tracer);
  power::PowerMonitor waveform_monitor;
  std::vector<exp::NamedResult> columns;
  // Keeps the last policy's run alive past the loop: the internally
  // captured delivery log (config.capture_delivery_log) lives inside the
  // Run, unlike the caller-owned tracer and waveform monitor.
  std::unique_ptr<exp::Run> last_run;
  for (std::size_t i = 0; i < plan.policies.size(); ++i) {
    exp::ExperimentConfig c = plan.config;
    c.policy = plan.policies[i];
    const bool last = i + 1 == plan.policies.size();
    if (plan.restore_snapshot_path) {
      // Resume mode: one run per policy from its snapshot file; --reps and
      // --jobs don't apply (a snapshot pins the base seed).
      wire_last_policy_captures(plan, last, c, tracer);
      auto run = std::make_unique<exp::Run>(c);
      try {
        run->restore_snapshot(snapshot::read_file(
            snapshot_path(*plan.restore_snapshot_path, c.policy)));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
      columns.push_back({exp::to_string(c.policy), run->finish()});
      if (last) last_run = std::move(run);
      continue;
    }
    // The run trace rides the base-seed run of the last policy, serial or
    // parallel alike (run_repeated keeps the tracer on the base seed).
    if (last && (plan.trace_path || plan.trace_json_path)) c.tracer = &tracer;
    const bool capture = last && (plan.delivery_log_path || plan.waveform_path);
    if (capture) {
      // Captures cover one seeded run of the last policy.
      if (plan.delivery_log_path) c.capture_delivery_log = true;
      if (plan.waveform_path) c.extra_power_listener = &waveform_monitor;
      auto run = std::make_unique<exp::Run>(c);
      columns.push_back({exp::to_string(c.policy), run->finish()});
      waveform_monitor.finalize(TimePoint::origin() + c.duration);
      last_run = std::move(run);
    } else {
      columns.push_back({exp::to_string(c.policy),
                         exp::run_repeated(c, plan.repetitions, plan.jobs)});
    }
  }

  if (plan.restore_snapshot_path) {
    std::printf("resumed from %s.<POLICY> snapshots\n",
                plan.restore_snapshot_path->c_str());
  }
  std::printf("workload: %s, duration: %s, beta: %.2f, reps: %d, jobs: %d\n\n",
              exp::to_string(plan.config.workload),
              plan.config.duration.to_string().c_str(), plan.config.beta,
              plan.repetitions, plan.jobs);
  std::printf("%s\n", exp::render_energy_figure(columns).c_str());
  std::printf("%s\n", exp::render_delay_figure(columns).c_str());
  std::printf("%s\n", exp::render_wakeup_table(columns).c_str());
  std::printf("%s\n", exp::render_standby_projection(columns).c_str());
  std::printf("%s\n", exp::render_guarantee_audit(columns).c_str());
  const std::string paging = exp::render_paging_table(columns);
  if (!paging.empty()) std::printf("%s\n", paging.c_str());

  if (plan.csv_path) {
    if (!write_output(*plan.csv_path, exp::results_csv(columns))) return 1;
    std::printf("results csv written to %s\n", plan.csv_path->c_str());
  }
  if (plan.waveform_path) {
    if (!write_output(*plan.waveform_path, waveform_monitor.waveform_csv(100000))) {
      return 1;
    }
    std::printf("power waveform written to %s\n", plan.waveform_path->c_str());
  }
  if (plan.delivery_log_path) {
    const trace::DeliveryLog& log = last_run->delivery_log();
    if (!write_output(*plan.delivery_log_path, log.to_csv())) return 1;
    std::printf("delivery trace (%zu records) written to %s\n", log.size(),
                plan.delivery_log_path->c_str());
  }
  return write_traces(plan, tracer) ? 0 : 1;
}
