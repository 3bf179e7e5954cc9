// Orchestrator: parse every file once, resolve the include graph, take its
// transitive closure, then run the taint, layering and reach passes over
// the shared Graph. Also home of the repository module table and product
// mains (DESIGN.md §6.4).

#include "analyze.hpp"

#include <algorithm>
#include <map>

#include "passes.hpp"

namespace simty::analyze {

const std::vector<std::string>& check_names() {
  static const std::vector<std::string> names = {"taint", "layering", "include-cycle",
                                                 "include", "reach"};
  return names;
}

const std::vector<std::string>& repo_product_mains() {
  static const std::vector<std::string> mains = {
      "tools/simty_run.cpp",     "tools/simty_serve.cpp", "tools/simty_query.cpp",
      "tools/snapshot_diff.cpp", "tools/trace_diff.cpp",
  };
  return mains;
}

const std::vector<ModuleRule>& repo_modules() {
  // Layer n may include layers <= n. The order mirrors the real dependency
  // structure: tracer (trace/tracer.*) is split out of module `trace`
  // because the event core emits trace records while the high-level
  // delivery log consumes alarm-layer types.
  static const std::vector<ModuleRule> rules = {
      {"src/common", "common", 0},
      {"src/trace/tracer", "tracer", 1},
      {"src/snapshot", "snapshot", 1},  // pure serialization over common
      {"src/sim", "sim", 2},
      {"src/hw", "hw", 3},
      {"src/alarm", "alarm", 4},
      {"src/metrics", "metrics", 5},
      {"src/power", "power", 5},
      {"src/net", "net", 5},
      {"src/apps", "apps", 6},
      {"src/trace", "trace", 7},
      {"src/exp", "exp", 8},
      {"src/fleet", "fleet", 9},
      {"src/serve", "serve", 9},  // sweep server drives exp runs
      {"src/experiments", "experiments", 9},  // read by benches and examples only
      {"src/cli", "cli", 10},
  };
  return rules;
}

int module_of(const std::vector<ModuleRule>& rules, const std::string& path) {
  int best = -1;
  std::size_t best_len = 0;
  for (std::size_t r = 0; r < rules.size(); ++r) {
    const std::string& p = rules[r].prefix;
    if (path.size() < p.size() || path.compare(0, p.size(), p) != 0) continue;
    if (path.size() > p.size() && path[p.size()] != '/' && path[p.size()] != '.') continue;
    if (p.size() >= best_len) {
      best = static_cast<int>(r);
      best_len = p.size();
    }
  }
  return best;
}

bool under_any(const std::string& path, const std::vector<std::string>& prefixes) {
  for (const auto& p : prefixes) {
    if (path.size() < p.size() || path.compare(0, p.size(), p) != 0) continue;
    if (path.size() == p.size() || path[p.size()] == '/' || path[p.size()] == '.') return true;
  }
  return false;
}

bool reaches(const Graph& g, int from, int to) {
  const auto& r = g.reach[static_cast<std::size_t>(from)];
  return std::binary_search(r.begin(), r.end(), to);
}

namespace {

/// Collapses "." and ".." components of a '/'-separated path.
std::string normalize(std::string path) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= path.size()) {
    std::size_t end = path.find('/', start);
    if (end == std::string::npos) end = path.size();
    const std::string part = path.substr(start, end - start);
    if (part == "..") {
      if (!parts.empty()) parts.pop_back();
    } else if (!part.empty() && part != ".") {
      parts.push_back(part);
    }
    if (end == path.size()) break;
    start = end + 1;
  }
  std::string out;
  for (const auto& p : parts) {
    if (!out.empty()) out += '/';
    out += p;
  }
  return out;
}

std::string dir_of(const std::string& path) {
  const std::size_t pos = path.rfind('/');
  return pos == std::string::npos ? std::string() : path.substr(0, pos);
}

/// Resolves one include spelling against the analyzed file set: relative to
/// the includer's directory first (how the tools include the lexer), then
/// as-is (repo-relative), then rooted at src/ (how src/ headers are spelled).
int resolve(const std::map<std::string, int>& by_path, const std::string& includer,
            const std::string& spelled) {
  const std::string candidates[] = {
      normalize(dir_of(includer) + "/" + spelled),
      normalize(spelled),
      normalize("src/" + spelled),
  };
  for (const auto& c : candidates) {
    const auto it = by_path.find(c);
    if (it != by_path.end()) return it->second;
  }
  return -1;
}

std::string companion_cpp(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos) return {};
  const std::string ext = path.substr(dot);
  if (ext != ".hpp" && ext != ".h") return {};
  return path.substr(0, dot) + ".cpp";
}

}  // namespace

Result analyze(const std::vector<SourceFile>& sources, const Config& config) {
  Graph g;
  g.models.reserve(sources.size());
  for (const auto& src : sources) g.models.push_back(build_model(src.path, src.content));
  // Deterministic output regardless of input order.
  std::sort(g.models.begin(), g.models.end(),
            [](const FileModel& a, const FileModel& b) { return a.path < b.path; });

  std::map<std::string, int> by_path;
  for (std::size_t i = 0; i < g.models.size(); ++i) {
    by_path[g.models[i].path] = static_cast<int>(i);
  }

  g.includes.resize(g.models.size());
  g.companion.assign(g.models.size(), -1);
  for (std::size_t i = 0; i < g.models.size(); ++i) {
    g.includes[i].reserve(g.models[i].includes.size());
    for (const auto& inc : g.models[i].includes) {
      g.includes[i].push_back(resolve(by_path, g.models[i].path, inc.spelled));
    }
    const auto it = by_path.find(companion_cpp(g.models[i].path));
    if (it != by_path.end()) g.companion[i] = it->second;
  }

  // Transitive include closure, then companion expansion: once foo.hpp is
  // reachable its definitions in foo.cpp are callable, so the taint pass
  // must consider them too (without treating that as an include edge).
  g.reach.resize(g.models.size());
  for (std::size_t i = 0; i < g.models.size(); ++i) {
    std::vector<int> stack = {static_cast<int>(i)};
    std::vector<bool> seen(g.models.size(), false);
    seen[i] = true;
    while (!stack.empty()) {
      const int f = stack.back();
      stack.pop_back();
      for (const int t : g.includes[static_cast<std::size_t>(f)]) {
        if (t >= 0 && !seen[static_cast<std::size_t>(t)]) {
          seen[static_cast<std::size_t>(t)] = true;
          stack.push_back(t);
        }
      }
    }
    for (std::size_t f = 0; f < g.models.size(); ++f) {
      const int cpp = g.companion[f];
      if (seen[f] && cpp >= 0) seen[static_cast<std::size_t>(cpp)] = true;
    }
    for (std::size_t f = 0; f < g.models.size(); ++f) {
      if (seen[f]) g.reach[i].push_back(static_cast<int>(f));
    }
  }

  Result result;
  result.files = g.models.size();
  for (std::size_t i = 0; i < g.models.size(); ++i) {
    result.functions += g.models[i].functions.size();
    for (const int t : g.includes[i]) {
      if (t >= 0) ++result.include_edges;
    }
  }

  run_taint(g, config, result);
  run_layering(g, config, result);
  run_reach(g, config, result);

  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.check, a.message) <
                     std::tie(b.file, b.line, b.check, b.message);
            });
  std::sort(result.advisories.begin(), result.advisories.end(),
            [](const Advisory& a, const Advisory& b) {
              return std::tie(a.file, a.line, a.message) < std::tie(b.file, b.line, b.message);
            });
  return result;
}

}  // namespace simty::analyze
