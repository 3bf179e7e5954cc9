#include "common/table.hpp"

#include <gtest/gtest.h>

#include <string>

namespace simty {
namespace {

TEST(TextTable, RendersAlignedColumns) {
  TextTable t("Wakeups");
  t.set_header({"Hardware", "NATIVE", "SIMTY"});
  t.add_row({"CPU", "733/983", "193/830"});
  t.add_row({"Wi-Fi", "443/548", "170/484"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Wakeups"), std::string::npos);
  EXPECT_NE(out.find("| CPU      | 733/983 | 193/830 |"), std::string::npos);
  EXPECT_NE(out.find("| Wi-Fi    | 443/548 | 170/484 |"), std::string::npos);
}

TEST(TextTable, HandlesRaggedRows) {
  TextTable t;
  t.set_header({"a", "b"});
  t.add_row({"only-one"});
  t.add_row({"x", "y", "z"});
  const std::string out = t.render();
  // Must not crash and must include all cells.
  EXPECT_NE(out.find("only-one"), std::string::npos);
  EXPECT_NE(out.find("z"), std::string::npos);
}

TEST(TextTable, SeparatorAddsRule) {
  TextTable t;
  t.add_row({"above"});
  t.add_separator();
  t.add_row({"below"});
  const std::string out = t.render();
  // 4 rules: top, separator, bottom... plus no header rule.
  std::size_t rules = 0;
  for (std::size_t pos = out.find("+-"); pos != std::string::npos;
       pos = out.find("+-", pos + 1)) {
    ++rules;
  }
  EXPECT_EQ(rules, 3u);
}

TEST(CsvWriter, QuotesSpecialFields) {
  CsvWriter w({"name", "note"});
  w.add_row({"plain", "a,b"});
  w.add_row({"quote\"inside", "line\nbreak"});
  const std::string out = w.to_string();
  EXPECT_NE(out.find("\"a,b\""), std::string::npos);
  EXPECT_NE(out.find("\"quote\"\"inside\""), std::string::npos);
  EXPECT_NE(out.find("\"line\nbreak\""), std::string::npos);
  EXPECT_EQ(out.substr(0, 10), "name,note\n");
}

}  // namespace
}  // namespace simty
