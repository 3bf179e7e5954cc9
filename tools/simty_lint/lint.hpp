#pragma once
// SIMTY-specific determinism lint.
//
// The simulator's load-bearing contract is bit-identical determinism:
// NATIVE-vs-SIMTY comparisons (and the parallel runner's submission-order
// reduction) are only meaningful if a run is a pure function of its seed.
// Generic tools cannot check that contract, so this linter enforces the
// project-local rules the event core relies on — no wall-clock reads, no
// unseeded randomness, no hash- or iteration-order-dependent logic in
// deterministic code, and the EventFn/intern_label hot-path rules from the
// event-queue rewrite. Every rule has an inline escape hatch:
//
//   code();  // simty-lint: allow(rule-a, rule-b)   — this line
//   // simty-lint: allow(rule-a)                    — next code line
//   // simty-lint: allow-file(rule-a)               — whole file
//
// DESIGN.md ("Static analysis & determinism gates") documents each rule.

#include <string>
#include <string_view>
#include <vector>

namespace simty::lint {

/// One rule violation at a source location.
struct Finding {
  std::string file;   // path as given to the linter (repo-relative in CI)
  int line = 0;       // 1-based
  std::string rule;   // stable rule name, e.g. "wall-clock"
  std::string message;
};

/// Path classification; prefixes are '/'-separated and repo-relative.
struct Options {
  /// Code that must be a pure function of the seed: the discrete-event
  /// core, the alarm/policy layer, the experiment runner, the run tracer
  /// (a nondeterministic tracer would poison the trace-diff gate), the
  /// fleet sampler/aggregator (whose bit-identical serial-vs-parallel
  /// contract is gated in CI), and the model layers they simulate through —
  /// net/hw/power/usage/metrics/apps/gcm all execute inside the event loop
  /// (imitated apps draw trace entries lazily, GCM schedules pushes), so a
  /// wall-clock read or unseeded draw there breaks the same contract.
  /// snapshot (checkpoint bytes must not depend on when they were written)
  /// and serve (cached results must equal freshly computed ones) extend the
  /// same contract across process boundaries.
  std::vector<std::string> deterministic_prefixes = {
      "src/sim",     "src/alarm",    "src/exp",   "src/trace", "src/fleet",
      "src/net",     "src/hw",       "src/power", "src/usage", "src/apps",
      "src/gcm",     "src/metrics",  "src/snapshot", "src/serve"};
  /// The event hot path: EventFn instead of std::function, interned
  /// const char* labels instead of std::string.
  std::vector<std::string> hot_path_prefixes = {"src/sim"};
  /// Files where per-event work must not introduce owning std:: containers
  /// or type-erased callables outside the arena-backed types (Arena,
  /// ArenaVector, EventFn). Entries may be directories or single files.
  std::vector<std::string> owning_hot_path_prefixes = {"src/sim",
                                                       "src/alarm/batch_index.hpp"};
  /// Unordered-container names declared outside this file (e.g. members
  /// declared in the companion header of a .cpp being linted).
  std::vector<std::string> extra_unordered_names;
};

/// Stable names of every rule, printed by --list-rules. allow(...)
/// directives are not validated against it: an unknown name silences
/// nothing.
const std::vector<std::string>& rule_names();

/// Lints one in-memory source file. `rel_path` decides which rule sets
/// apply (deterministic / hot-path / header-only rules).
std::vector<Finding> lint_source(std::string_view rel_path, std::string_view content,
                                 const Options& opts = {});

/// Collects identifiers declared as unordered containers in `content`
/// (used to seed Options::extra_unordered_names from a companion header).
std::vector<std::string> unordered_names_in(std::string_view content);

/// Renders findings as a machine-readable JSON report.
std::string to_json(const std::vector<Finding>& findings,
                    std::size_t files_scanned);

}  // namespace simty::lint
