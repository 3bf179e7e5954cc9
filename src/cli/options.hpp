#pragma once
// Command-line front end for the experiment harness: parses argv into an
// ExperimentConfig plus output options, with help text. Kept as a library
// so the parsing is unit-testable; the `simty_run` tool is a thin wrapper.

#include <optional>
#include <string>
#include <vector>

#include "exp/experiment.hpp"

namespace simty::cli {

/// Everything a simty_run invocation needs.
struct RunPlan {
  exp::ExperimentConfig config;

  /// Policies to run and compare (columns of the report).
  std::vector<exp::PolicyKind> policies = {exp::PolicyKind::kNative,
                                           exp::PolicyKind::kSimty};

  int repetitions = 3;
  int jobs = 1;                              // parallel workers for repetitions

  /// Fleet mode (--fleet N): run a device population per policy instead of
  /// seed repetitions; workload/duration flags are superseded by the
  /// cohort specs. See fleet/fleet_runner.hpp.
  std::optional<std::uint64_t> fleet_devices;
  std::optional<std::string> cohorts_path;    // --cohorts FILE
  std::optional<std::string> fleet_csv_path;  // --fleet-csv PATH


  /// Snapshot mode (exp/run.hpp): --snapshot-at M --save-snapshot PATH
  /// pauses each selected policy's base-seed run at its first quiescent
  /// instant past M minutes and writes PATH.<POLICY>; --restore-snapshot
  /// PATH resumes each policy from those files and reports as usual.
  /// Capture flags (--delivery-log, --trace) must match between the save
  /// and restore invocations: captures serialize with the run, so the
  /// snapshot must carry them for the resumed output to be byte-identical
  /// to a straight run.
  std::optional<double> snapshot_at_minutes;         // --snapshot-at M
  std::optional<std::string> save_snapshot_path;     // --save-snapshot PATH
  std::optional<std::string> restore_snapshot_path;  // --restore-snapshot PATH

  std::optional<std::string> csv_path;       // write results CSV here
  std::optional<std::string> delivery_log_path;  // write a delivery log here
  std::optional<std::string> waveform_path;  // write the power waveform here
  std::optional<std::string> trace_path;       // write a binary run trace here
  std::optional<std::string> trace_json_path;  // write a Chrome JSON trace here
  bool show_help = false;
};

/// Result of parsing: either a plan or an error message for the user.
struct ParseResult {
  std::optional<RunPlan> plan;
  std::string error;  // non-empty iff !plan

  bool ok() const { return plan.has_value(); }
};

/// Parses argv (excluding argv[0]); usage() documents the flags.
ParseResult parse_args(const std::vector<std::string>& args);

/// The --help text.
std::string usage();

}  // namespace simty::cli
