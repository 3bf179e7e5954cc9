// Reach pass.
//
// src/ holds what a product reads, plus what an experiment reads under
// src/experiments/. Two walks over the include graph decide it. The first
// starts at the product mains (Config::product_mains), the second at every
// analyzed file under bench/ and examples/. Both follow each include and,
// from a reached header, its companion .cpp: a linked program carries the
// definitions, and their includes with them. Then:
//
//   - a src/ header outside src/experiments/ that no product reaches is an
//     error, saying whether a bench or example reaches it or nothing does;
//   - a src/experiments/ header that no bench or example reaches is an error;
//   - a product main that reaches src/experiments/ is an error naming the
//     nearest such file and the include chain to it.
//
// A product main missing from the analyzed set is an error too, since the
// walk would otherwise call every header unreached. The check has no escape
// hatch: a header either has a reader or goes.

#include <algorithm>
#include <string>

#include "passes.hpp"

namespace simty::analyze {

namespace {

const std::vector<std::string> kExperimentRoots = {"bench", "examples"};
const std::vector<std::string> kExperiments = {"src/experiments"};

bool is_src_header(const std::string& path) {
  if (path.rfind("src/", 0) != 0) return false;
  const std::size_t dot = path.rfind('.');
  return dot != std::string::npos && (path.compare(dot, std::string::npos, ".hpp") == 0 ||
                                      path.compare(dot, std::string::npos, ".h") == 0);
}

/// A breadth-first walk: the files reached in visit order (roots first,
/// nearest first), and for each file the one it was first reached from
/// (itself for a root, -1 when unreached).
struct Walk {
  std::vector<int> order;
  std::vector<int> from;
};

Walk walk(const Graph& g, const std::vector<int>& roots) {
  Walk w;
  w.from.assign(g.models.size(), -1);
  const auto visit = [&](int to, int by) {
    if (to < 0 || w.from[static_cast<std::size_t>(to)] >= 0) return;
    w.from[static_cast<std::size_t>(to)] = by;
    w.order.push_back(to);
  };
  for (const int r : roots) visit(r, r);
  for (std::size_t next = 0; next < w.order.size(); ++next) {
    const int f = w.order[next];
    for (const int t : g.includes[static_cast<std::size_t>(f)]) visit(t, f);
    visit(g.companion[static_cast<std::size_t>(f)], f);
  }
  return w;
}

Finding finding(const std::string& file, std::string message) {
  Finding f;
  f.check = "reach";
  f.file = file;
  f.line = 1;
  f.message = std::move(message);
  return f;
}

}  // namespace

void run_reach(const Graph& g, const Config& config, Result& result) {
  if (config.product_mains.empty()) return;

  std::vector<int> mains;
  bool missing = false;
  for (const std::string& path : config.product_mains) {
    const auto it = std::find_if(g.models.begin(), g.models.end(),
                                 [&](const FileModel& m) { return m.path == path; });
    if (it == g.models.end()) {
      result.findings.push_back(finding(
          path, "product main is not among the analyzed files, so no header can be "
                "judged unreached (analyze src tools bench examples)"));
      missing = true;
    } else {
      mains.push_back(static_cast<int>(it - g.models.begin()));
    }
  }
  if (missing) return;

  std::vector<int> experiment_roots;
  for (std::size_t i = 0; i < g.models.size(); ++i) {
    if (under_any(g.models[i].path, kExperimentRoots)) {
      experiment_roots.push_back(static_cast<int>(i));
    }
  }
  const Walk product = walk(g, mains);
  const Walk experiment = walk(g, experiment_roots);

  for (std::size_t i = 0; i < g.models.size(); ++i) {
    const std::string& path = g.models[i].path;
    if (!is_src_header(path)) continue;
    if (under_any(path, kExperiments)) {
      if (experiment.from[i] < 0) {
        result.findings.push_back(
            finding(path, "experiment header reached by no bench or example"));
      }
    } else if (product.from[i] < 0) {
      result.findings.push_back(finding(
          path, experiment.from[i] < 0
                    ? "header reached by no product, bench or example"
                    : "header reached only by a bench or example: move it under "
                      "src/experiments/ or delete it"));
    }
  }

  const auto path_of = [&](int f) -> const std::string& {
    return g.models[static_cast<std::size_t>(f)].path;
  };
  for (const int m : mains) {
    const Walk w = walk(g, {m});
    const auto nearest = std::find_if(w.order.begin(), w.order.end(), [&](int f) {
      return under_any(path_of(f), kExperiments);
    });
    if (nearest == w.order.end()) continue;
    Finding f = finding(path_of(m), "product main reaches '" + path_of(*nearest) +
                                        "', which only benches and examples read");
    for (int t = *nearest; t != m; t = w.from[static_cast<std::size_t>(t)]) {
      const int by = w.from[static_cast<std::size_t>(t)];
      f.chain.insert(f.chain.begin(), path_of(by) + " -> " + path_of(t));
    }
    result.findings.push_back(std::move(f));
  }
}

}  // namespace simty::analyze
