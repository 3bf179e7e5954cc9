#include "common/strings.hpp"

#include <gtest/gtest.h>

namespace simty {
namespace {

TEST(Strings, StrFormat) {
  EXPECT_EQ(str_format("%d/%d", 733, 983), "733/983");
  EXPECT_EQ(str_format("%.1f mJ", 3650.0), "3650.0 mJ");
  EXPECT_EQ(str_format("empty"), "empty");
}

TEST(Strings, StrFormatLongOutput) {
  const std::string big(500, 'x');
  EXPECT_EQ(str_format("%s!", big.c_str()), big + "!");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(join({"solo"}, ","), "solo");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("trailing,", ','), (std::vector<std::string>{"trailing", ""}));
}

TEST(Strings, SplitJoinRoundTrip) {
  const std::string s = "wifi|wps|accelerometer";
  EXPECT_EQ(join(split(s, '|'), "|"), s);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\na b\r\n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, ParseDurationCountsUnitsAndRejectsOverflow) {
  EXPECT_EQ(parse_duration("1.5", Duration::hours(1)), Duration::minutes(90));
  EXPECT_EQ(parse_duration("1280", Duration::millis(1)), Duration::millis(1280));
  EXPECT_EQ(parse_duration("0", Duration::seconds(1)), Duration::zero());
  // Rounded to the microsecond.
  EXPECT_EQ(parse_duration("0.0000004", Duration::seconds(1)), Duration::zero());
  // The largest whole count of minutes that fits in int64 microseconds.
  EXPECT_EQ(parse_duration("153722867280", Duration::minutes(1)),
            Duration::minutes(153722867280));
  for (const char* bad : {"153722867281", "1e300", "-1", "-1e-9", "nan", "inf", "0x10",
                          "3h", ""}) {
    EXPECT_FALSE(parse_duration(bad, Duration::minutes(1)).has_value()) << bad;
  }
}

TEST(Strings, Percent) {
  EXPECT_EQ(percent(0.179), "17.9%");
  EXPECT_EQ(percent(0.3333, 0), "33%");
  EXPECT_EQ(percent(0.004, 2), "0.40%");
}

}  // namespace
}  // namespace simty
