// Layering pass.
//
// The module table (Config::modules, longest-prefix match) assigns each
// file a (module, layer). An include from layer L into layer L' > L in a
// *different* module is a back edge — an error naming both modules. Any
// cycle in the resolved include graph is an error printing the loop.
// Finally, a direct include none of whose declared names appear in the
// includer is reported as an `include` advisory (IWYU-lite) — advisory
// because umbrella headers and macro-only uses make this heuristic, and
// `// simty-analyze: allow-file(include)` silences it per file.

#include <algorithm>
#include <string>

#include "passes.hpp"

namespace simty::analyze {

namespace {

bool word_in(const std::string& text, const std::string& word) {
  const auto ident = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
  };
  for (std::size_t pos = text.find(word); pos != std::string::npos;
       pos = text.find(word, pos + 1)) {
    const bool l = pos == 0 || !ident(text[pos - 1]);
    const std::size_t e = pos + word.size();
    if (l && (e >= text.size() || !ident(text[e]))) return true;
  }
  return false;
}

bool line_allows(const FileModel& m, int line, const char* check) {
  if (std::find(m.file_allows.begin(), m.file_allows.end(), check) != m.file_allows.end())
    return true;
  if (line < 1 || static_cast<std::size_t>(line) > m.line_allows.size()) return false;
  const auto& v = m.line_allows[static_cast<std::size_t>(line) - 1];
  return std::find(v.begin(), v.end(), check) != v.end();
}

}  // namespace

void run_layering(const Graph& g, const Config& config, Result& result) {
  const std::vector<ModuleRule>& rules = config.modules;

  // Back edges over direct includes.
  if (!rules.empty()) {
    for (std::size_t i = 0; i < g.models.size(); ++i) {
      const FileModel& m = g.models[i];
      const int from = module_of(rules, m.path);
      if (from < 0) continue;  // tests/bench/tools sit outside the DAG
      for (std::size_t k = 0; k < m.includes.size(); ++k) {
        const int t = g.includes[i][k];
        if (t < 0) continue;
        const int to = module_of(rules, g.models[static_cast<std::size_t>(t)].path);
        if (to < 0) continue;
        const ModuleRule& rf = rules[static_cast<std::size_t>(from)];
        const ModuleRule& rt = rules[static_cast<std::size_t>(to)];
        if (rt.module == rf.module || rt.layer <= rf.layer) continue;
        if (line_allows(m, m.includes[k].line, "layering")) continue;
        Finding f;
        f.check = "layering";
        f.file = m.path;
        f.line = m.includes[k].line;
        f.message = "module '" + rf.module + "' (layer " + std::to_string(rf.layer) +
                    ") must not include '" + m.includes[k].spelled + "' from module '" +
                    rt.module + "' (layer " + std::to_string(rt.layer) + ")";
        f.chain = {m.path + " -> " + g.models[static_cast<std::size_t>(t)].path};
        result.findings.push_back(std::move(f));
      }
    }
  }

  // Include cycles (any modules — a cycle breaks single-pass builds and
  // poisons the closure the taint pass depends on). DFS with colors; each
  // cycle is reported once, anchored at its lexicographically smallest file.
  {
    enum Color { kWhite, kGray, kBlack };
    std::vector<Color> color(g.models.size(), kWhite);
    std::vector<int> stack_pos(g.models.size(), -1);
    std::vector<int> path;
    std::vector<std::vector<int>> cycles;

    struct Frame {
      int node;
      std::size_t next = 0;
    };
    for (std::size_t start = 0; start < g.models.size(); ++start) {
      if (color[start] != kWhite) continue;
      std::vector<Frame> frames{{static_cast<int>(start)}};
      color[start] = kGray;
      stack_pos[start] = 0;
      path = {static_cast<int>(start)};
      while (!frames.empty()) {
        Frame& fr = frames.back();
        const auto& outs = g.includes[static_cast<std::size_t>(fr.node)];
        if (fr.next < outs.size()) {
          const int t = outs[fr.next++];
          if (t < 0) continue;
          if (color[static_cast<std::size_t>(t)] == kGray) {
            // Found a cycle: path from t's stack position to the top.
            std::vector<int> cyc(path.begin() + stack_pos[static_cast<std::size_t>(t)],
                                 path.end());
            const auto min_it = std::min_element(
                cyc.begin(), cyc.end(), [&](int a, int b) {
                  return g.models[static_cast<std::size_t>(a)].path <
                         g.models[static_cast<std::size_t>(b)].path;
                });
            std::rotate(cyc.begin(), min_it, cyc.end());
            if (std::find(cycles.begin(), cycles.end(), cyc) == cycles.end()) {
              cycles.push_back(cyc);
            }
          } else if (color[static_cast<std::size_t>(t)] == kWhite) {
            color[static_cast<std::size_t>(t)] = kGray;
            stack_pos[static_cast<std::size_t>(t)] = static_cast<int>(path.size());
            path.push_back(t);
            frames.push_back({t});
          }
        } else {
          color[static_cast<std::size_t>(fr.node)] = kBlack;
          path.pop_back();
          frames.pop_back();
        }
      }
    }
    std::sort(cycles.begin(), cycles.end(), [&](const auto& a, const auto& b) {
      return g.models[static_cast<std::size_t>(a.front())].path <
             g.models[static_cast<std::size_t>(b.front())].path;
    });
    for (const auto& cyc : cycles) {
      const FileModel& anchor = g.models[static_cast<std::size_t>(cyc.front())];
      Finding f;
      f.check = "include-cycle";
      f.file = anchor.path;
      f.line = 1;
      f.message = "include cycle of " + std::to_string(cyc.size()) + " file(s)";
      for (std::size_t n = 0; n < cyc.size(); ++n) {
        f.chain.push_back(g.models[static_cast<std::size_t>(cyc[n])].path + " -> " +
                          g.models[static_cast<std::size_t>(cyc[(n + 1) % cyc.size()])].path);
      }
      result.findings.push_back(std::move(f));
    }
  }

  // IWYU-lite advisories over direct includes of analyzed files.
  for (std::size_t i = 0; i < g.models.size(); ++i) {
    const FileModel& m = g.models[i];
    for (std::size_t k = 0; k < m.includes.size(); ++k) {
      const int t = g.includes[i][k];
      if (t < 0) continue;
      const FileModel& target = g.models[static_cast<std::size_t>(t)];
      if (target.provided.empty()) continue;  // nothing parseable — assume used
      if (m.includes[k].allowed || line_allows(m, m.includes[k].line, "include")) continue;
      // A .cpp including its own companion header is the definition site.
      const std::size_t dot_m = m.path.rfind('.');
      const std::size_t dot_t = target.path.rfind('.');
      if (dot_m != std::string::npos && dot_t != std::string::npos &&
          m.path.compare(0, dot_m, target.path, 0, dot_t) == 0) {
        continue;
      }
      bool used = false;
      for (const auto& name : target.provided) {
        if (word_in(m.joined, name)) {
          used = true;
          break;
        }
      }
      if (!used) {
        result.advisories.push_back(
            {"include", m.path, m.includes[k].line,
             "include '" + m.includes[k].spelled +
                 "' looks unused: nothing it declares is referenced here"});
      }
    }
  }
}

}  // namespace simty::analyze
