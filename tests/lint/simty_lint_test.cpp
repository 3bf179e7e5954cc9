// Self-tests for simty_lint: every rule must both fire on its fixture and
// respect the allow-comment escape hatch. Expectations are embedded in the
// fixtures themselves as `// LINT-EXPECT: <rule>[, <rule>]` markers, so a
// fixture and its oracle can never drift apart.

#include "lint.hpp"
#include "lexer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace simty::lint {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(SIMTY_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

using LineRule = std::pair<int, std::string>;

/// Parses the `LINT-EXPECT:` markers out of fixture text.
std::vector<LineRule> expectations_in(const std::string& content) {
  std::vector<LineRule> out;
  std::istringstream in(content);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t pos = line.find("LINT-EXPECT:");
    if (pos == std::string::npos) continue;
    std::istringstream rules(line.substr(pos + 12));
    std::string rule;
    while (std::getline(rules, rule, ',')) {
      rule.erase(0, rule.find_first_not_of(" \t"));
      rule.erase(rule.find_last_not_of(" \t") + 1);
      if (!rule.empty()) out.emplace_back(line_no, rule);
    }
  }
  return out;
}

std::vector<LineRule> findings_as_pairs(const std::vector<Finding>& findings) {
  std::vector<LineRule> out;
  out.reserve(findings.size());
  for (const auto& f : findings) out.emplace_back(f.line, f.rule);
  return out;
}

/// Lints `fixture` under `rel_path` and checks findings == embedded markers.
void check_fixture(const std::string& fixture, const std::string& rel_path) {
  SCOPED_TRACE(fixture + " as " + rel_path);
  const std::string content = read_fixture(fixture);
  ASSERT_FALSE(content.empty());
  std::vector<LineRule> expected = expectations_in(content);
  std::vector<LineRule> actual = findings_as_pairs(lint_source(rel_path, content));
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(expected, actual);
}

TEST(SimtyLintRules, WallClockFiresAndRespectsAllow) {
  check_fixture("wall_clock.cpp", "src/alarm/fixture.cpp");
}

TEST(SimtyLintRules, RawRandFiresAndRespectsAllow) {
  check_fixture("raw_rand.cpp", "src/exp/fixture.cpp");
}

TEST(SimtyLintRules, StdHashFiresAndRespectsAllow) {
  check_fixture("std_hash.cpp", "src/alarm/fixture.cpp");
}

TEST(SimtyLintRules, UnorderedIterFiresAndRespectsAllow) {
  check_fixture("unordered_iter.cpp", "src/alarm/fixture.cpp");
}

TEST(SimtyLintRules, FloatTimeFiresAndRespectsAllow) {
  check_fixture("float_time.cpp", "src/alarm/fixture.cpp");
}

TEST(SimtyLintRules, StdFunctionFiresInHotPath) {
  check_fixture("std_function.cpp", "src/sim/fixture.cpp");
}

TEST(SimtyLintRules, StringLabelFiresInHotPath) {
  check_fixture("string_label.cpp", "src/sim/fixture.cpp");
}

TEST(SimtyLintRules, AssertFiresEverywhere) {
  check_fixture("asserts.cpp", "src/common/fixture.cpp");
}

TEST(SimtyLintRules, PragmaOnceRequiredInHeaders) {
  check_fixture("missing_pragma.hpp", "src/common/fixture.hpp");
  check_fixture("good_pragma.hpp", "src/common/fixture.hpp");
  check_fixture("allow_file.hpp", "src/common/fixture.hpp");
}

TEST(SimtyLintRules, IncludeHygiene) {
  check_fixture("include_hygiene.cpp", "src/common/fixture.cpp");
}

TEST(SimtyLintRules, QueueScanFiresOnlyInAlarmPolicyFiles) {
  check_fixture("queue_scan.cpp", "src/alarm/fake_policy.cpp");
  // Same content is legal outside alarm-policy files: the manager's own
  // differential reference and non-policy code may sweep freely.
  const std::string content = read_fixture("queue_scan.cpp");
  EXPECT_TRUE(lint_source("src/alarm/alarm_manager.cpp", content).empty());
  EXPECT_TRUE(lint_source("src/exp/policy_sweep.cpp", content).empty());
}

TEST(SimtyLintRules, LexerNeverFiresInsideCommentsOrLiterals) {
  check_fixture("clean.cpp", "src/alarm/fixture.cpp");
}

TEST(SimtyLintRules, DeterministicRulesScopedToDeterministicPaths) {
  // The same wall-clock fixture is legal outside the deterministic scope
  // (benches time themselves with steady_clock on purpose; the CLI may
  // stamp reports with the real date).
  const std::string content = read_fixture("wall_clock.cpp");
  EXPECT_TRUE(lint_source("bench/fixture.cpp", content).empty());
  EXPECT_TRUE(lint_source("src/cli/fixture.cpp", content).empty());
  EXPECT_TRUE(lint_source("tools/fixture.cpp", content).empty());
  // The run tracer is deterministic code too: a wall-clock read there would
  // poison the trace-diff gate.
  EXPECT_FALSE(lint_source("src/trace/fixture.cpp", content).empty());
  // The model layers the event loop simulates through are in scope as well:
  // a wall-clock read in net/hw/power/usage/metrics/apps/gcm breaks the
  // same bit-identical contract as one in the event core. Imitated apps
  // draw trace entries inside the loop; GCM schedules pushes there.
  for (const char* path :
       {"src/net/fixture.cpp", "src/hw/fixture.cpp", "src/power/fixture.cpp",
        "src/usage/fixture.cpp", "src/metrics/fixture.cpp", "src/apps/fixture.cpp",
        "src/gcm/fixture.cpp"}) {
    SCOPED_TRACE(path);
    EXPECT_FALSE(lint_source(path, content).empty());
  }
}

TEST(SimtyLintRules, FleetPathsAreDeterministicScope) {
  // The fleet sampler/aggregator promise bit-identical serial-vs-parallel
  // aggregates, so src/fleet is in the deterministic scope: every marked
  // line in the fixture fires there...
  check_fixture("fleet_scope.cpp", "src/fleet/fixture.cpp");
  // ...while the deterministic-only rules (wall-clock, raw-rand, std-hash)
  // stay silent outside the scope. unordered-iter applies everywhere.
  const std::string content = read_fixture("fleet_scope.cpp");
  for (const char* path : {"bench/fixture.cpp", "src/cli/fixture.cpp"}) {
    SCOPED_TRACE(path);
    for (const Finding& f : lint_source(path, content)) {
      EXPECT_EQ(f.rule, "unordered-iter");
    }
  }
}

TEST(SimtyLintRules, HotPathRulesScopedToSim) {
  const std::string content = read_fixture("std_function.cpp");
  EXPECT_TRUE(lint_source("src/hw/fixture.cpp", content).empty());
}

TEST(SimtyLintRules, ExtraUnorderedNamesCoverCompanionHeaderMembers) {
  // Members declared in a header are invisible when linting the .cpp alone;
  // Options::extra_unordered_names (fed by the CLI from the companion
  // header) closes that hole.
  const std::string body =
      "namespace f {\n"
      "void T::run() {\n"
      "  for (const auto& kv : members_) use(kv);\n"
      "}\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/alarm/t.cpp", body).empty());
  Options opts;
  opts.extra_unordered_names = {"members_"};
  const auto findings = lint_source("src/alarm/t.cpp", body, opts);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unordered-iter");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(SimtyLintLexer, BlanksLiteralsAndKeepsStructure) {
  const FileScan scan = scan_source(
      "int a = 1; // rand()\n"
      "const char* s = \"system_clock\";\n"
      "/* std::hash */ int b = 2;\n");
  ASSERT_GE(scan.code.size(), 3u);
  EXPECT_FALSE(has_word(scan.code[0], "rand"));
  EXPECT_FALSE(has_word(scan.code[1], "system_clock"));
  EXPECT_FALSE(has_word(scan.code[2], "std::hash"));
  EXPECT_TRUE(has_word(scan.code[2], "b"));
}

TEST(SimtyLintLexer, AllowDirectiveParsing) {
  const FileScan scan = scan_source(
      "int a;  // simty-lint: allow(rule-a, rule-b)\n"
      "// simty-lint: allow(rule-c)\n"
      "int b;\n"
      "// simty-lint: allow-file(rule-d)\n");
  ASSERT_EQ(scan.line_allows.size(), 5u);  // 4 lines + trailing empty line
  EXPECT_EQ(scan.line_allows[0], (std::vector<std::string>{"rule-a", "rule-b"}));
  EXPECT_TRUE(scan.line_allows[1].empty());
  EXPECT_EQ(scan.line_allows[2], (std::vector<std::string>{"rule-c"}));
  EXPECT_EQ(scan.file_allows, (std::vector<std::string>{"rule-d"}));
}

TEST(SimtyLintLexer, WordBoundaries) {
  EXPECT_TRUE(has_word("x = rand();", "rand"));
  EXPECT_FALSE(has_word("x = grand();", "rand"));
  EXPECT_FALSE(has_word("x = rands();", "rand"));
  EXPECT_TRUE(has_word("std::hash<int> h;", "std::hash"));
  EXPECT_FALSE(has_word("std::hashish h;", "std::hash"));
  EXPECT_FALSE(has_word("std::string_view v;", "std::string"));
}

TEST(SimtyLintLexer, RawStringsBlankEmbeddedCommentMarkers) {
  // `//` inside a raw string is content, not a comment — code after the
  // closing delimiter on the same line must survive the scan.
  const FileScan scan = scan_source(
      "auto s = R\"(// not a comment; rand())\"; int live = rand();\n"
      "auto d = R\"x(quote\" and )\" inside)x\"; int tail = 1;\n");
  ASSERT_GE(scan.code.size(), 2u);
  EXPECT_TRUE(has_word(scan.code[0], "rand"));  // the real call after the literal
  EXPECT_FALSE(scan.code[0].find("not a comment") != std::string::npos);
  // The )\" inside the d-char-delimited literal must not close it early.
  EXPECT_FALSE(has_word(scan.code[1], "inside"));
  EXPECT_TRUE(has_word(scan.code[1], "tail"));
}

TEST(SimtyLintLexer, DigitSeparatorsAreNotCharLiterals) {
  // 1'000'000 must not start a character literal that swallows the rest of
  // the line (a classic lexer bug for C++14 digit separators).
  const FileScan scan = scan_source("int n = 1'000'000; int m = rand();\n");
  ASSERT_GE(scan.code.size(), 1u);
  EXPECT_TRUE(has_word(scan.code[0], "rand"));
}

TEST(SimtyLintLexer, BackslashContinuedLineComments) {
  // Phase-2 splicing: a `//` comment ending in a backslash swallows the next
  // physical line, so the rand() there is commented out — but line 3 is code.
  const FileScan scan = scan_source(
      "int a = 0; // continued \\\n"
      "int dead = rand();\n"
      "int live = rand();\n");
  ASSERT_GE(scan.code.size(), 3u);
  EXPECT_FALSE(has_word(scan.code[1], "rand"));
  EXPECT_TRUE(has_word(scan.code[2], "rand"));
}

TEST(SimtyLintLexer, DirectiveTagSelectsToolNamespace) {
  // The same source carries hatches for both tools; each scan must honour
  // only its own tag.
  const std::string src =
      "int a;  // simty-lint: allow(wall-clock)\n"
      "int b;  // simty-analyze: allow(taint)\n";
  const FileScan lint_scan = scan_source(src);
  EXPECT_EQ(lint_scan.line_allows[0], (std::vector<std::string>{"wall-clock"}));
  EXPECT_TRUE(lint_scan.line_allows[1].empty());
  const FileScan analyze_scan = scan_source(src, "simty-analyze:");
  EXPECT_TRUE(analyze_scan.line_allows[0].empty());
  EXPECT_EQ(analyze_scan.line_allows[1], (std::vector<std::string>{"taint"}));
}

TEST(SimtyLintApi, UnorderedNamesInFindsAliasesAndMembers) {
  const auto names = unordered_names_in(
      "#pragma once\n"
      "#include <unordered_map>\n"
      "using Index = std::unordered_map<int, int>;\n"
      "struct S {\n"
      "  std::unordered_map<int, std::vector<int>> by_id_;\n"
      "  Index index_;\n"
      "};\n");
  EXPECT_NE(std::find(names.begin(), names.end(), "by_id_"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "index_"), names.end());
}

TEST(SimtyLintApi, JsonReportEscapesAndCounts) {
  const std::vector<Finding> findings = {
      {"src/a.cpp", 3, "assert", "uses \"assert\""}};
  const std::string json = to_json(findings, 7);
  EXPECT_NE(json.find("\"files_scanned\": 7"), std::string::npos);
  EXPECT_NE(json.find("\\\"assert\\\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
  EXPECT_EQ(to_json({}, 0).find("\"findings\": []") == std::string::npos, false);
}

TEST(SimtyLintApi, RuleNamesStable) {
  const auto& names = rule_names();
  EXPECT_EQ(names.size(), 12u);
  EXPECT_NE(std::find(names.begin(), names.end(), "wall-clock"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "unordered-iter"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "queue-scan"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "hot-path-owning"), names.end());
}

}  // namespace
}  // namespace simty::lint
