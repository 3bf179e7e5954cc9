// Determinism-taint pass.
//
// Seeds (wall clocks, random_device, rand, std::hash, pointer->integer
// casts, this_thread::get_id, getenv — collected per function by the
// parser) are propagated callee -> caller over the name-resolved call
// graph. A call resolves to a definition only when the definition's file is
// in the caller's include closure (companion .cpp included), which keeps
// same-name functions in unrelated corners of the tree from gluing the
// graph together. Any tainted function *defined in the deterministic core*
// is an error; the diagnostic reconstructs the full call chain down to the
// seed. `// simty-analyze: allow(taint)` on a seed line stops that seed; on
// a function definition line it cuts propagation through that function.

#include <algorithm>
#include <cstddef>
#include <deque>
#include <map>

#include "passes.hpp"

namespace simty::analyze {

namespace {

struct FnRef {
  int file = 0;
  int fn = 0;
};

std::string last_component(const std::string& name) {
  const std::size_t pos = name.rfind("::");
  return pos == std::string::npos ? name : name.substr(pos + 2);
}

/// Why a function is tainted: a seed of its own, or a call into a tainted
/// callee. Exactly one of the two is set.
struct Cause {
  int seed = -1;       // index into fn.seeds
  int callee = -1;     // global function index
  int call_line = 0;
};

}  // namespace

void run_taint(const Graph& g, const Config& config, Result& result) {
  // Global function indexing + definition lookup by unqualified name.
  std::vector<FnRef> fns;
  std::map<std::string, std::vector<int>> defs;
  for (std::size_t i = 0; i < g.models.size(); ++i) {
    for (std::size_t f = 0; f < g.models[i].functions.size(); ++f) {
      defs[g.models[i].functions[f].name].push_back(static_cast<int>(fns.size()));
      fns.push_back({static_cast<int>(i), static_cast<int>(f)});
    }
  }
  const auto fn_of = [&](int idx) -> const Function& {
    const FnRef r = fns[static_cast<std::size_t>(idx)];
    return g.models[static_cast<std::size_t>(r.file)].functions[static_cast<std::size_t>(r.fn)];
  };
  const auto file_of = [&](int idx) -> const FileModel& {
    return g.models[static_cast<std::size_t>(fns[static_cast<std::size_t>(idx)].file)];
  };

  // Resolve calls to reachable definitions; build caller lists per callee.
  struct Edge {
    int caller = 0;
    int callee = 0;
    int call_line = 0;
  };
  std::vector<std::vector<Edge>> callers_of(fns.size());  // indexed by callee
  for (int caller = 0; caller < static_cast<int>(fns.size()); ++caller) {
    const FnRef r = fns[static_cast<std::size_t>(caller)];
    for (const Call& c : fn_of(caller).calls) {
      const auto it = defs.find(last_component(c.name));
      if (it == defs.end()) continue;
      for (const int callee : it->second) {
        if (callee == caller) continue;
        if (!reaches(g, r.file, fns[static_cast<std::size_t>(callee)].file)) continue;
        // A qualified call must agree with the definition's qualifier.
        if (c.name.find("::") != std::string::npos) {
          const std::string& q = fn_of(callee).qualified;
          const std::string& cq = c.name;
          const bool suffix =
              q.size() >= cq.size() && q.compare(q.size() - cq.size(), cq.size(), cq) == 0;
          const bool rsuffix =
              cq.size() >= q.size() && cq.compare(cq.size() - q.size(), q.size(), q) == 0;
          if (!suffix && !rsuffix) continue;
        }
        callers_of[static_cast<std::size_t>(callee)].push_back({caller, callee, c.line});
        ++result.call_edges;
      }
    }
  }

  // Fixpoint: BFS from seed-carrying functions toward callers. allow(taint)
  // on a definition makes the function opaque — it neither taints nor
  // propagates.
  std::vector<Cause> cause(fns.size());
  std::vector<bool> tainted(fns.size(), false);
  std::deque<int> work;
  for (int idx = 0; idx < static_cast<int>(fns.size()); ++idx) {
    const Function& fn = fn_of(idx);
    if (fn.taint_allowed) continue;
    for (std::size_t s = 0; s < fn.seeds.size(); ++s) {
      if (fn.seeds[s].allowed) continue;
      tainted[static_cast<std::size_t>(idx)] = true;
      cause[static_cast<std::size_t>(idx)].seed = static_cast<int>(s);
      work.push_back(idx);
      break;
    }
  }
  while (!work.empty()) {
    const int idx = work.front();
    work.pop_front();
    for (const Edge& e : callers_of[static_cast<std::size_t>(idx)]) {
      if (tainted[static_cast<std::size_t>(e.caller)]) continue;
      if (fn_of(e.caller).taint_allowed) continue;
      tainted[static_cast<std::size_t>(e.caller)] = true;
      cause[static_cast<std::size_t>(e.caller)].callee = idx;
      cause[static_cast<std::size_t>(e.caller)].call_line = e.call_line;
      work.push_back(e.caller);
    }
  }

  // Report tainted functions in the deterministic core — but only at the
  // point where taint *enters* the core (a seed of its own, or a call to a
  // tainted function outside the core). Core-internal callers of an already
  // reported core function would repeat the same chain one frame longer.
  const auto in_core = [&](int idx) {
    return under_any(file_of(idx).path, config.deterministic_prefixes);
  };
  for (int idx = 0; idx < static_cast<int>(fns.size()); ++idx) {
    if (!tainted[static_cast<std::size_t>(idx)] || !in_core(idx)) continue;
    const Cause& c = cause[static_cast<std::size_t>(idx)];
    if (c.seed < 0 && in_core(c.callee)) continue;

    Finding f;
    f.check = "taint";
    f.file = file_of(idx).path;
    f.line = fn_of(idx).line;
    // Walk the cause chain down to the seed.
    int cur = idx;
    std::string seed_name;
    while (true) {
      const Function& fn = fn_of(cur);
      const Cause& cc = cause[static_cast<std::size_t>(cur)];
      if (cc.seed >= 0) {
        const Seed& s = fn.seeds[static_cast<std::size_t>(cc.seed)];
        f.chain.push_back(fn.qualified + " [" + file_of(cur).path + ":" +
                          std::to_string(fn.line) + "] uses " + s.what + " at line " +
                          std::to_string(s.line));
        seed_name = s.what;
        break;
      }
      f.chain.push_back(fn.qualified + " [" + file_of(cur).path + ":" +
                        std::to_string(fn.line) + "] calls " +
                        fn_of(cc.callee).qualified + " at line " +
                        std::to_string(cc.call_line));
      cur = cc.callee;
    }
    f.message = "deterministic-core function '" + fn_of(idx).qualified +
                "' transitively reaches nondeterminism source " + seed_name +
                " (chain of " + std::to_string(f.chain.size()) + ")";
    result.findings.push_back(std::move(f));
  }
}

}  // namespace simty::analyze
