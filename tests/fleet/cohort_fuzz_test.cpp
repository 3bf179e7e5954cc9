// Hostile-input sweep over the cohort-file parser: every mangled file
// either parses to cohorts that pass CohortSpec::validate() or is rejected
// with std::runtime_error. No input aborts; a std::logic_error escaping
// parse_cohorts fails the test. Every parsed cohort must also run: its
// first two sampled devices, on a short horizon, aggregate to finite
// means and spreads. Deterministic per seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "exp/run.hpp"
#include "fleet/aggregate.hpp"
#include "fleet/cohort.hpp"
#include "fleet/fleet_runner.hpp"
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

// Replaces the value after one random '=' with a hostile token, adding a
// second value, before or after it, about half the time so two-valued keys
// keep their arity.
std::string with_hostile_value(std::string text, Rng& rng) {
  std::vector<std::size_t> equals;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '=') equals.push_back(i);
  }
  if (equals.empty()) return text;
  const std::size_t eq =
      equals[rng.next_below(static_cast<std::uint32_t>(equals.size()))];
  const std::size_t end = std::min(text.find('\n', eq), text.size());
  const std::string hostile = kHostileValues[rng.next_below(std::size(kHostileValues))];
  std::string value = " " + hostile;
  switch (rng.next_below(4)) {
    case 0: value += " 5"; break;
    case 1: value = " 1 " + hostile; break;
    default: break;
  }
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
    std::vector<CohortSpec> cohorts;
    try {
      cohorts = parse_cohorts(text);
      ++parsed;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
    for (const CohortSpec& spec : cohorts) {
      EXPECT_NO_THROW(spec.validate()) << text;
      EXPECT_GT(spec.standby, Duration::zero()) << text;
      // The devices the fleet would run first, cut to a short horizon.
      CohortAggregate agg(spec.name);
      try {
        for (std::uint64_t d = 0; d < 2; ++d) {
          exp::ExperimentConfig config = device_config(
              spec, sample_device(spec, static_cast<std::uint64_t>(trial), d),
              exp::PolicyKind::kSimty, alarm::SimilarityConfig{});
          config.duration = std::min(config.duration, Duration::minutes(10));
          agg.add(device_metrics(exp::run_experiment(std::move(config))));
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "a parsed cohort failed its run (" << e.what() << "):\n"
                      << text;
      }
#define SIMTY_EXPECT_FINITE(name, upper, buckets)                           \
  EXPECT_TRUE(std::isfinite(agg.name.stats().mean()) &&                     \
              std::isfinite(agg.name.stats().stddev()))                     \
      << #name << " of a parsed cohort is not finite:\n"                   \
      << text;
      SIMTY_FLEET_METRICS(SIMTY_EXPECT_FINITE)
#undef SIMTY_EXPECT_FINITE
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace simty::fleet
