#pragma once
// simty_analyze — compile-free cross-TU semantic analysis.
//
// simty_lint (tools/simty_lint) checks one file at a time; this tool parses
// the whole tree once — include graph, per-function symbol table, call
// graph — and runs the checks that only make sense across translation
// units:
//
//   taint    A nondeterminism source (wall clock, random_device, std::hash,
//            pointer->integer cast, getenv, thread ids) reachable through
//            the call graph from a function *defined in the deterministic
//            core* is an error, even when the source sits in a helper three
//            modules away. The diagnostic prints the full call chain.
//   layering The module DAG declared in Config::modules is enforced over
//            the include graph: an include from a lower layer into a higher
//            one (a back edge) and any include cycle are errors. Unused
//            includes are reported as advisories (IWYU-lite), never errors.
//
// Escape hatches mirror the linter's, under the "simty-analyze:" tag:
//
//   thing();  // simty-analyze: allow(taint)      — this line
//   // simty-analyze: allow(layering)             — next code line
//   // simty-analyze: allow-file(include)         — whole file
//
// Everything is lexical + structural (the shared simty_lint lexer plus a
// brace-matching scope parser): no compiler, no compile_commands.json, so
// the analysis runs identically on any machine in under a second.

#include <cstddef>
#include <string>
#include <vector>

namespace simty::analyze {

/// One file handed to the analyzer: repo-relative path + full contents.
struct SourceFile {
  std::string path;  // '/'-separated, repo-relative, e.g. "src/sim/event_queue.cpp"
  std::string content;
};

/// One row of the module table. Files are assigned to the longest matching
/// prefix; a prefix matches at a '/', '.', or end-of-string boundary so
/// "src/trace/tracer" claims trace/tracer.{hpp,cpp} out of module "trace".
struct ModuleRule {
  std::string prefix;
  std::string module;
  int layer = 0;  // includes may only point at layers <= their own
};

struct Config {
  /// Module table used by the layering check. Empty -> layering pass skipped.
  std::vector<ModuleRule> modules;
  /// Functions defined under these prefixes form the deterministic core for
  /// the taint check. Matches the contract in DESIGN.md; deliberately the
  /// event core itself, not every linted path — the lint catches direct
  /// sources in the model layers, the analyzer catches laundering *into*
  /// the core through helpers.
  std::vector<std::string> deterministic_prefixes = {
      "src/sim",   "src/alarm",    "src/exp",  "src/fleet",
      "src/trace", "src/snapshot", "src/serve"};
};

/// Returns the module table for this repository (the DAG in DESIGN.md §6.4).
const std::vector<ModuleRule>& repo_modules();

/// One error-level violation.
struct Finding {
  std::string check;  // "taint" | "layering" | "include-cycle"
  std::string file;
  int line = 0;
  std::string message;
  /// Evidence trail, outermost first: the call chain from the deterministic
  /// function to the seed, or the include chain around a cycle. Empty for
  /// single-site findings.
  std::vector<std::string> chain;
};

/// Non-fatal report (currently only "include": unused direct includes).
struct Advisory {
  std::string check;
  std::string file;
  int line = 0;
  std::string message;
};

struct Result {
  std::vector<Finding> findings;
  std::vector<Advisory> advisories;
  std::size_t files = 0;
  std::size_t functions = 0;
  std::size_t call_edges = 0;
  std::size_t include_edges = 0;
};

/// Stable names of every check, printed by --list-checks. allow(...)
/// directives are not validated against it: an unknown name silences
/// nothing.
const std::vector<std::string>& check_names();

/// Analyzes the whole file set at once (order-insensitive; results are
/// sorted by file/line/check).
Result analyze(const std::vector<SourceFile>& sources, const Config& config = {});

/// Renders a Result as a machine-readable JSON report.
std::string to_json(const Result& result);

}  // namespace simty::analyze
