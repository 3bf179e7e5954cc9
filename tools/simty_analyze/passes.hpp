#pragma once
// Internal interface between the orchestrator (analyze.cpp) and the two
// analysis passes. The Graph is the whole-tree view every pass consumes:
// parsed per-file models plus the resolved include graph and its closure.

#include <vector>

#include "analyze.hpp"
#include "model.hpp"

namespace simty::analyze {

struct Graph {
  std::vector<FileModel> models;
  /// includes[i][k] — index of the file models[i].includes[k] resolves to,
  /// or -1 when the spelling names nothing in the analyzed set (system or
  /// generated headers).
  std::vector<std::vector<int>> includes;
  /// reach[i] — sorted indices of every file transitively included by i,
  /// plus the companion .cpp of every reachable header (a definition in
  /// foo.cpp is callable wherever foo.hpp is visible). Includes i itself.
  std::vector<std::vector<int>> reach;
};

bool reaches(const Graph& g, int from, int to);

/// Longest-prefix module lookup; prefixes match at '/', '.', or end.
/// Returns -1 when no rule matches (tests/, bench/ — out of the DAG).
int module_of(const std::vector<ModuleRule>& rules, const std::string& path);

void run_taint(const Graph& g, const Config& config, Result& result);
void run_layering(const Graph& g, const Config& config, Result& result);

}  // namespace simty::analyze
