// Hostile-input sweep over the cohort-file parser: every mangled file
// either parses to cohorts that pass CohortSpec::validate() or is rejected
// with std::runtime_error. No input aborts; a std::logic_error escaping
// parse_cohorts fails the test. Deterministic per seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fleet/cohort.hpp"
#include "support/corrupt.hpp"

namespace simty::fleet {
namespace {

// Every key, once, with in-range values.
constexpr const char* kValidFile =
    "[phones]\n"
    "weight = 2\n"
    "apps = 4 12\n"
    "rein_jitter = 0.2\n"
    "alpha_jitter = 0.1\n"
    "beta = 0.9 0.98\n"
    "wearable_fraction = 0.1\n"
    "power_scale = 0.85 1.15\n"
    "degraded_fraction = 0.3\n"
    "degraded_hold_max = 2.5\n"
    "standby_minutes = 10\n"
    "system_alarms = on\n"
    "[watches]  # a second section\n"
    "apps = 2 6\n";

// Values that sit on or past a bound of some key.
constexpr const char* kHostileValues[] = {
    "1e300", "-1e300", "1e-300", "-0", "0", "1", "18", "19", "2.5", "0.999999",
    "nan", "inf", "0x10", "99999999999999999999", "-9223372036854775808", ""};

// Replaces the value after one random '=' with a hostile token, keeping a
// second value about half the time so two-valued keys keep their arity.
std::string with_hostile_value(std::string text, Rng& rng) {
  std::vector<std::size_t> equals;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '=') equals.push_back(i);
  }
  if (equals.empty()) return text;
  const std::size_t eq =
      equals[rng.next_below(static_cast<std::uint32_t>(equals.size()))];
  const std::size_t end = std::min(text.find('\n', eq), text.size());
  std::string value = std::string(" ") +
                      kHostileValues[rng.next_below(std::size(kHostileValues))];
  if (rng.next_below(2) == 0) value += " 5";
  return text.replace(eq + 1, end - eq - 1, value);
}

TEST(CohortFuzz, MangledFilesParseValidOrThrowRuntimeError) {
  ASSERT_NO_THROW(parse_cohorts(kValidFile));
  Rng rng(0xC0407);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string text = kValidFile;
    const std::uint32_t edits = 1 + rng.next_below(3);
    for (std::uint32_t e = 0; e < edits; ++e) {
      text = rng.next_below(2) == 0 ? with_hostile_value(text, rng)
                                    : support::corrupt(text, rng);
      if (text.empty()) text = "[a]";
    }
    try {
      for (const CohortSpec& spec : parse_cohorts(text)) {
        EXPECT_NO_THROW(spec.validate()) << text;
        EXPECT_GT(spec.standby, Duration::zero()) << text;
      }
      ++parsed;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace simty::fleet
