#pragma once
// Command-line front end for the experiment harness: parses argv into an
// ExperimentConfig plus output options, with help text. Kept as a library
// so the parsing is unit-testable; the `simty_run` tool is a thin wrapper.

#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/time.hpp"
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
  /// seed repetitions. The cohort specs set each device's workload and
  /// duration, so fleet mode rejects the run-only flags. See
  /// fleet/fleet_runner.hpp.
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
  std::optional<Duration> snapshot_at;               // --snapshot-at M
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

/// How a flag reads its value into FlagValue: a switch reads none (integer
/// 1), an integer must lie in [min, max], a number must be finite, a
/// duration is a count of `unit`s (parse_duration) whose microseconds lie in
/// [min, max], text is taken as given, and an output path is text whose
/// directory exists and that is not itself a directory (checked before any
/// run, not when the file is written).
enum class FlagKind { kSwitch, kInteger, kNumber, kDuration, kText, kOutputPath };

struct FlagValue {
  long long integer = 1;
  double number = 0.0;
  Duration duration;
  std::string text;
};

/// A flag table row: the flag, its value kind, its setter (which stores the
/// value in the member the row sets, and returns false to reject it: number
/// and text rows check their range there), the usage error after the flag's
/// name, and the bound (see FlagKind).
struct Flag {
  const char* name;
  FlagKind kind;
  std::function<bool(const FlagValue&)> set;
  const char* error = "";
  long long min = 0;
  long long max = std::numeric_limits<long long>::max();
  Duration unit{};
};

/// The setter that stores the value in `member` as the member's type reads it.
template <typename M>
std::function<bool(const FlagValue&)> store(M& member) {
  return [&member](const FlagValue& v) {
    if constexpr (std::is_assignable_v<M&, Duration>) {
      member = v.duration;
    } else if constexpr (std::is_assignable_v<M&, std::string>) {
      member = v.text;
    } else {
      member = static_cast<M>(v.integer);
    }
    return true;
  };
}

/// Parses `args` through the tool's `own` rows and then the config flags
/// simty_run and simty_query share, which set `config` (--workload --apps
/// --hours --minutes --seed --no-system-alarms --doze --fixed-interval
/// --drx-cycle --wur --wur-budget --hw-levels), and checks the rules between
/// those (--wur needs --drx-cycle, ...). Returns "" or the usage error.
/// --policy and --beta are each tool's own rows: simty_run takes a policy
/// list and the base β, simty_query one policy and a beta switch's β.
std::string parse_flags(const std::vector<std::string>& args,
                        const std::vector<Flag>& own, exp::ExperimentConfig& config);

/// The --help text.
std::string usage();

}  // namespace simty::cli
