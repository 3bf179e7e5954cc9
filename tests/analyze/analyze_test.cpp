// Self-tests for simty_analyze: each fixture tree under fixtures/ injects
// one violation class (transitive wall-clock taint, layering back edge +
// include cycle, a src/ header without a reader) and the analyzer must fail
// it with a diagnostic naming the file and the full call/include chain — or
// pass it when the escape hatch is present.
// The parser itself is pinned by the model tests at the bottom.

#include "analyze.hpp"
#include "model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace simty::analyze {
namespace {

namespace fs = std::filesystem;

/// Loads every source under fixtures/<name>/ with fixture-relative paths
/// (so "src/sim/..." classification applies as in the real tree).
std::vector<SourceFile> load_tree(const std::string& name) {
  const fs::path root = fs::path(SIMTY_ANALYZE_FIXTURE_DIR) / name;
  std::vector<SourceFile> out;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    out.push_back({fs::relative(entry.path(), root).generic_string(), buf.str()});
  }
  EXPECT_FALSE(out.empty()) << "missing fixture tree " << root;
  std::sort(out.begin(), out.end(),
            [](const SourceFile& a, const SourceFile& b) { return a.path < b.path; });
  return out;
}

Config repo_config() {
  Config config;
  config.modules = repo_modules();
  return config;
}

TEST(AnalyzeTaint, TransitiveWallClockReachingCoreIsReportedWithChain) {
  const Result result = analyze(load_tree("taint"), repo_config());
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.check, "taint");
  // Reported where taint enters the core (tick), not at the core-internal
  // caller (step) — one finding per chain, not one per frame.
  EXPECT_EQ(f.file, "src/sim/engine.cpp");
  EXPECT_NE(f.message.find("tick"), std::string::npos);
  EXPECT_NE(f.message.find("system_clock"), std::string::npos);
  // The chain names every hop down to the seed.
  ASSERT_EQ(f.chain.size(), 2u);
  EXPECT_NE(f.chain[0].find("tick"), std::string::npos);
  EXPECT_NE(f.chain[0].find("now_ms"), std::string::npos);
  EXPECT_NE(f.chain[1].find("src/common/timing.cpp"), std::string::npos);
  EXPECT_NE(f.chain[1].find("system_clock"), std::string::npos);
}

TEST(AnalyzeTaint, AllowOnSeedLineSilencesTheWholeChain) {
  const Result result = analyze(load_tree("taint_allow"), repo_config());
  EXPECT_TRUE(result.findings.empty()) << result.findings[0].message;
}

TEST(AnalyzeLayering, BackEdgeAndCycleAreBothReported) {
  const Result result = analyze(load_tree("layering"), repo_config());
  ASSERT_EQ(result.findings.size(), 2u);  // sorted by file: alarm cycle, hw back edge
  const auto back = std::find_if(result.findings.begin(), result.findings.end(),
                                 [](const Finding& f) { return f.check == "layering"; });
  ASSERT_NE(back, result.findings.end());
  EXPECT_EQ(back->file, "src/hw/radio.hpp");
  EXPECT_NE(back->message.find("'hw'"), std::string::npos);
  EXPECT_NE(back->message.find("'alarm'"), std::string::npos);
  const auto cycle = std::find_if(result.findings.begin(), result.findings.end(),
                                  [](const Finding& f) { return f.check == "include-cycle"; });
  ASSERT_NE(cycle, result.findings.end());
  // The chain walks the whole loop.
  ASSERT_EQ(cycle->chain.size(), 2u);
  EXPECT_NE(cycle->chain[0].find("sched.hpp"), std::string::npos);
  EXPECT_NE(cycle->chain[0].find("radio.hpp"), std::string::npos);
}

TEST(AnalyzeClean, WellLayeredTreeIsSilent) {
  const Result result = analyze(load_tree("clean"), repo_config());
  EXPECT_TRUE(result.findings.empty());
  EXPECT_TRUE(result.advisories.empty());
  EXPECT_EQ(result.files, 3u);
  EXPECT_GT(result.call_edges, 0u);
}

TEST(AnalyzeIwyu, UnusedIncludeIsAnAdvisoryNotAFinding) {
  const Result result = analyze(load_tree("iwyu"), repo_config());
  EXPECT_TRUE(result.findings.empty());
  ASSERT_EQ(result.advisories.size(), 1u);
  EXPECT_EQ(result.advisories[0].check, "include");
  EXPECT_EQ(result.advisories[0].file, "src/sim/use.cpp");
}

TEST(AnalyzeIwyu, CallOfADeclaredOnlyFunctionUsesTheHeader) {
  // jobs.hpp declares default_jobs() and an __attribute__-tagged
  // log_line() without defining them; fan_out.cpp and log.cpp each call one
  // and use nothing else the header declares.
  const Result result = analyze(load_tree("iwyu_decl"), repo_config());
  EXPECT_TRUE(result.findings.empty());
  EXPECT_TRUE(result.advisories.empty())
      << result.advisories.front().file << ": " << result.advisories.front().message;
}

/// Reach fixtures name one product main; layering is left out, so only
/// the reach pass can report.
Config reach_config() {
  Config config;
  config.product_mains = {"tools/simty_run.cpp"};
  return config;
}

TEST(AnalyzeReach, HeaderReachedOnlyByATestIsReported) {
  const Result result = analyze(load_tree("reach_test_only"), reach_config());
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].check, "reach");
  EXPECT_EQ(result.findings[0].file, "src/common/probe.hpp");
  EXPECT_NE(result.findings[0].message.find("no product, bench or example"),
            std::string::npos);
}

TEST(AnalyzeReach, HeaderReachedOnlyByABenchOutsideExperimentsIsReported) {
  // bench_spec.cpp includes src/hw/spec.hpp and src/experiments/push.hpp;
  // only the first needs a product reader.
  const Result result = analyze(load_tree("reach_bench_only"), reach_config());
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].check, "reach");
  EXPECT_EQ(result.findings[0].file, "src/hw/spec.hpp");
  EXPECT_NE(result.findings[0].message.find("only by a bench or example"),
            std::string::npos);
}

TEST(AnalyzeReach, ProductMainReachingExperimentsIsReportedWithChain) {
  // The product reaches src/experiments/ only through a companion .cpp.
  const Result result = analyze(load_tree("reach_product_experiments"), reach_config());
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& f = result.findings[0];
  EXPECT_EQ(f.check, "reach");
  EXPECT_EQ(f.file, "tools/simty_run.cpp");
  EXPECT_NE(f.message.find("src/experiments/adaptive.hpp"), std::string::npos);
  EXPECT_EQ(f.chain, (std::vector<std::string>{
                         "tools/simty_run.cpp -> src/exp/run.hpp",
                         "src/exp/run.hpp -> src/exp/run.cpp",
                         "src/exp/run.cpp -> src/experiments/adaptive.hpp"}));
}

TEST(AnalyzeReach, ExperimentHeaderWithoutABenchOrExampleIsReported) {
  const Result result = analyze({{"tools/simty_run.cpp", "int main() { return 0; }\n"},
                                 {"src/experiments/orphan.hpp", "#pragma once\n"}},
                                reach_config());
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].file, "src/experiments/orphan.hpp");
  EXPECT_NE(result.findings[0].message.find("no bench or example"), std::string::npos);
}

TEST(AnalyzeReach, MissingProductMainIsReportedInsteadOfEveryHeader) {
  const Result result =
      analyze({{"src/common/a.hpp", "#pragma once\nint a();\n"}}, reach_config());
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].file, "tools/simty_run.cpp");
  EXPECT_NE(result.findings[0].message.find("not among the analyzed files"),
            std::string::npos);
}

TEST(AnalyzeApi, JsonReportCarriesChainsAndCounts) {
  const Result result = analyze(load_tree("taint"), repo_config());
  const std::string json = to_json(result);
  EXPECT_NE(json.find("\"check\": \"taint\""), std::string::npos);
  EXPECT_NE(json.find("\"chain\": ["), std::string::npos);
  EXPECT_NE(json.find("system_clock"), std::string::npos);
  EXPECT_NE(json.find("\"files\": 3"), std::string::npos);
}

TEST(AnalyzeApi, CheckNamesStable) {
  const auto& names = check_names();
  EXPECT_EQ(names, (std::vector<std::string>{"taint", "layering", "include-cycle",
                                             "include", "reach"}));
}

// ---- parser pins ---------------------------------------------------------

FileModel parse(const std::string& content, const std::string& path = "src/sim/x.cpp") {
  return build_model(path, content);
}

TEST(AnalyzeModel, ParsesFunctionsMethodsAndQualifiedNames) {
  const FileModel m = parse(
      "namespace n {\n"
      "int free_fn(int v) { return v; }\n"
      "class C {\n"
      " public:\n"
      "  int inline_method() { return free_fn(1); }\n"
      "};\n"
      "int C::out_of_line() const { return 2; }\n"
      "}\n");
  ASSERT_EQ(m.functions.size(), 3u);
  EXPECT_EQ(m.functions[0].qualified, "free_fn");
  EXPECT_EQ(m.functions[1].qualified, "C::inline_method");
  EXPECT_EQ(m.functions[2].qualified, "C::out_of_line");
  ASSERT_EQ(m.functions[1].calls.size(), 1u);
  EXPECT_EQ(m.functions[1].calls[0].name, "free_fn");
}

TEST(AnalyzeModel, ConstructorsAndOperatorsAreParsed) {
  // A constructor's init list must not read as its parameter list, and an
  // operator's symbolic name must still be found: both bodies are call-graph
  // nodes for the taint pass.
  const FileModel m = parse(
      "struct S {\n"
      "  S() : v_(0) {}\n"
      "  bool operator==(const S& o) const { return v_ == o.v_; }\n"
      "  int v_;\n"
      "};\n");
  ASSERT_EQ(m.functions.size(), 2u);
  EXPECT_EQ(m.functions[0].qualified, "S::S");
  EXPECT_EQ(m.functions[1].qualified, "S::operator==");
}

TEST(AnalyzeModel, SeedDetectionIsWordAndQualifierAware) {
  const FileModel m = parse(
      "void f() {\n"
      "  auto a = std::chrono::steady_clock::now();\n"
      "  auto b = std::hash<int>{}(1);\n"
      "  int grand_total = 0;\n"       // no 'rand' seed: word boundary
      "  long t = obj.time();\n"        // member named time: not the libc clock
      "  (void)a; (void)b; (void)grand_total; (void)t;\n"
      "}\n");
  ASSERT_EQ(m.functions.size(), 1u);
  std::vector<std::string> seeds;
  for (const auto& s : m.functions[0].seeds) seeds.push_back(s.what);
  EXPECT_EQ(seeds, (std::vector<std::string>{"steady_clock", "std::hash"}));
}

TEST(AnalyzeModel, MacroBodiesWithBracesDoNotBreakScopes) {
  const FileModel m = parse(
      "#define CHECKED(x) do { if (!(x)) abort(); } while (0)\n"
      "int after_macro() { CHECKED(1); return 3; }\n");
  ASSERT_EQ(m.functions.size(), 1u);
  EXPECT_EQ(m.functions[0].qualified, "after_macro");
}

TEST(AnalyzeModel, ThreadSafetyAnnotationsDoNotHideDefinitions) {
  // SIMTY_REQUIRES / SIMTY_EXCLUDES after the parameter list are definition
  // qualifiers, not calls: the annotated function still parses and its
  // body's calls still reach the taint pass.
  const FileModel m = parse(
      "class R {\n"
      "  void touch() SIMTY_REQUIRES(mu_) { bump(); }\n"
      "  void poke() SIMTY_EXCLUDES(mu_) { bump(); }\n"
      "  int n_ SIMTY_GUARDED_BY(mu_);\n"
      "};\n",
      "src/common/r.hpp");
  ASSERT_EQ(m.functions.size(), 2u);
  EXPECT_EQ(m.functions[0].qualified, "R::touch");
  EXPECT_EQ(m.functions[1].qualified, "R::poke");
  for (const Function& fn : m.functions) {
    ASSERT_EQ(fn.calls.size(), 1u) << fn.qualified;
    EXPECT_EQ(fn.calls[0].name, "bump");
  }
}

}  // namespace
}  // namespace simty::analyze
