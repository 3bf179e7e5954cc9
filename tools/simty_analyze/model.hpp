#pragma once
// Internal per-file model built by the structural parser (model.cpp).
//
// One FileModel per SourceFile: the blanked source (comments/literals
// spaced out by the shared simty_lint lexer, preprocessor lines blanked on
// top of that so macro bodies can't unbalance the brace matcher), its
// direct includes, and every function definition found by the heuristic
// scope parser with the calls and nondeterminism seeds inside it.

#include <cstddef>
#include <string>
#include <vector>

namespace simty::analyze {

/// A `#include "..."` with the spelling as written (quoted includes only;
/// <system> includes carry no layering or taint information here).
struct Include {
  std::string spelled;
  int line = 0;
  bool allowed = false;  // allow(include) / allow-file(include)
};

/// A call site `name(` inside a function body. `name` keeps an explicit
/// qualifier when written (`detail::now_ms`), unqualified otherwise.
struct Call {
  std::string name;
  int line = 0;
};

/// A nondeterminism source appearing textually inside a function body.
struct Seed {
  std::string what;  // e.g. "std::chrono::system_clock"
  int line = 0;
  bool allowed = false;  // allow(taint) on the seed line
};

/// A parsed function definition (has a body in this file).
struct Function {
  std::string name;        // unqualified: "set_sink"
  std::string qualified;   // as written: "Tracer::save" or "save"
  std::string display;     // "file:line name" for diagnostics
  int line = 0;
  std::size_t body_begin = 0;  // offset of '{' in joined text
  std::size_t body_end = 0;    // offset one past matching '}'
  bool taint_allowed = false;  // allow(taint) on the definition line
  std::vector<Call> calls;
  std::vector<Seed> seeds;
};

struct FileModel {
  std::string path;
  /// Blanked source joined with '\n' (preprocessor lines also blanked).
  std::string joined;
  /// Byte offset of each line's start in `joined` (1-based line -> index 0).
  std::vector<std::size_t> line_start;
  std::vector<Include> includes;
  std::vector<Function> functions;
  /// Identifiers this file declares at namespace/class scope (functions,
  /// classes, enums) — used by the IWYU pass to decide whether an include
  /// supplies anything the includer mentions.
  std::vector<std::string> provided;
  /// Checks disabled for the whole file via allow-file(...).
  std::vector<std::string> file_allows;
  /// Per-line allow(...) directives (1-based line -> index 0), kept so the
  /// layering pass can honour hatches on the include lines it reports.
  std::vector<std::vector<std::string>> line_allows;
};

/// Parses one source file. Pure function of (path, content).
FileModel build_model(const std::string& path, const std::string& content);

/// 1-based line of `offset` in `model.joined`.
int line_of(const FileModel& model, std::size_t offset);

}  // namespace simty::analyze
