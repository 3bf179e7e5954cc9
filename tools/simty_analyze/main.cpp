// simty_analyze — cross-TU determinism/layering analyzer (analyze.hpp).
//
// Usage:
//   simty_analyze [--root DIR] [--json FILE] [--list-checks] PATH...
//
// PATHs are files or directories, resolved relative to --root (default: the
// current directory); paths are recorded repo-relative so the module table
// and deterministic-core prefixes match. Unlike simty_lint the whole file
// set is analyzed at once — include graph, call graph — so CI passes the
// tree roots (src tools bench examples), not single files; the reach check
// needs the product mains and every bench and example to judge src/. Exit
// status: 0 clean (advisories do not fail the run), 1 findings, 2 usage or
// I/O error.

#include "analyze.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

bool analyzable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc";
}

bool skip_dir(const fs::path& p) {
  const std::string name = p.filename().string();
  return name.empty() || name.front() == '.' || name.rfind("build", 0) == 0;
}

std::string rel_to(const fs::path& root, const fs::path& p) {
  std::error_code ec;
  const fs::path rel = fs::relative(p, root, ec);
  return (ec ? p : rel).generic_string();
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::string json_path;
  std::vector<std::string> targets;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--list-checks") {
      for (const auto& c : simty::analyze::check_names()) std::printf("%s\n", c.c_str());
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: simty_analyze [--root DIR] [--json FILE] [--list-checks] PATH...\n");
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "simty_analyze: unknown option %s\n", arg.c_str());
      return 2;
    } else {
      targets.push_back(arg);
    }
  }
  if (targets.empty()) {
    std::fprintf(stderr, "simty_analyze: no paths given (try --help)\n");
    return 2;
  }

  std::vector<fs::path> files;
  for (const auto& t : targets) {
    const fs::path p = fs::path(t).is_absolute() ? fs::path(t) : root / t;
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      fs::recursive_directory_iterator it(p, fs::directory_options::skip_permission_denied, ec);
      if (ec) {
        std::fprintf(stderr, "simty_analyze: cannot walk %s: %s\n", p.c_str(),
                     ec.message().c_str());
        return 2;
      }
      for (auto end = fs::recursive_directory_iterator(); it != end; ++it) {
        if (it->is_directory() && skip_dir(it->path())) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && analyzable(it->path())) files.push_back(it->path());
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p);
    } else {
      std::fprintf(stderr, "simty_analyze: no such file or directory: %s\n", p.c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<simty::analyze::SourceFile> sources;
  sources.reserve(files.size());
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "simty_analyze: cannot read %s\n", file.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    sources.push_back({rel_to(root, file), buf.str()});
  }

  simty::analyze::Config config;
  config.modules = simty::analyze::repo_modules();
  config.product_mains = simty::analyze::repo_product_mains();
  const simty::analyze::Result result = simty::analyze::analyze(sources, config);

  for (const auto& f : result.findings) {
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.check.c_str(),
                f.message.c_str());
    for (const auto& step : f.chain) std::printf("    %s\n", step.c_str());
  }
  for (const auto& a : result.advisories) {
    std::printf("%s:%d: [%s, advisory] %s\n", a.file.c_str(), a.line, a.check.c_str(),
                a.message.c_str());
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "simty_analyze: cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << simty::analyze::to_json(result);
  }
  std::printf(
      "simty_analyze: %zu files, %zu functions, %zu call edges, %zu include edges — "
      "%zu finding(s), %zu advisory(ies)\n",
      result.files, result.functions, result.call_edges, result.include_edges,
      result.findings.size(), result.advisories.size());
  return result.findings.empty() ? 0 : 1;
}
