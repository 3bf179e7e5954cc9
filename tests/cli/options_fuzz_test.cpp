// Hostile-input sweep over the CLI's numeric flags: every argument list
// built from mangled numbers either parses to a config that read_config
// (the validating config decoder) accepts back from its encoding, or is a
// usage error. No input aborts. Deterministic per seed.

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "cli/options.hpp"
#include "common/rng.hpp"
#include "snapshot/snapshot.hpp"
#include "support/corrupt.hpp"

namespace simty::cli {
namespace {

// Every flag that reads a number, with a value it accepts.
constexpr const char* kNumericFlags[][2] = {
    {"--apps", "18"},         {"--beta", "0.96"},         {"--hours", "3"},
    {"--minutes", "90"},      {"--seed", "7"},            {"--reps", "3"},
    {"--jobs", "2"},          {"--fixed-interval", "300"}, {"--drx-cycle", "1280"},
    {"--wur-budget", "500"},  {"--hw-levels", "3"},       {"--fleet", "100"},
    {"--snapshot-at", "60"},
};

constexpr const char* kHostileValues[] = {
    "1e300", "-1e300", "1e-300", "-0", "0", "nan", "inf", "0x10", "",
    "9223372036854775807", "9223372036854775808", "2562047788.1", "153722867281"};

std::string mangled_number(const char* valid, Rng& rng) {
  const std::uint32_t pick = rng.next_below(3);
  if (pick == 0) return kHostileValues[rng.next_below(std::size(kHostileValues))];
  if (pick == 1) return support::corrupt(valid, rng);
  return valid;
}

TEST(CliFuzz, MangledNumbersParseValidOrFailAsUsageErrors) {
  Rng rng(0xC11F);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<std::string> args;
    const std::uint32_t flags = 1 + rng.next_below(4);
    for (std::uint32_t f = 0; f < flags; ++f) {
      const auto& [flag, valid] = kNumericFlags[rng.next_below(std::size(kNumericFlags))];
      args.emplace_back(flag);
      args.push_back(mangled_number(valid, rng));
      if (std::string(flag) == "--wur-budget") args.emplace_back("--wur");
      if (std::string(flag) == "--snapshot-at") {
        args.insert(args.end(), {"--save-snapshot", "s"});
      }
    }
    const ParseResult r = parse_args(args);
    if (!r.ok()) {
      EXPECT_NE(r.error.find(" (see --help)"), std::string::npos) << r.error;
      ++rejected;
      continue;
    }
    ++parsed;
    const std::string encoding = exp::encode_config(r.plan->config);
    snapshot::SectionReader s("config", 0, encoding);
    EXPECT_NO_THROW(exp::read_config(s)) << testing::PrintToString(args);
    EXPECT_GT(r.plan->config.duration, Duration::zero());
    if (r.plan->snapshot_at) {
      EXPECT_LT(*r.plan->snapshot_at, r.plan->config.duration);
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace simty::cli
