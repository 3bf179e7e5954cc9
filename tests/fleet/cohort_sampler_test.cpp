// Sampler determinism: a device's sample is a pure counter-keyed function
// of (spec, fleet seed, device index) — byte-identical however many other
// devices the fleet holds and however it is sharded — plus cohort-file
// parsing and deterministic weight apportionment.

#include "fleet/cohort.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "apps/app_catalog.hpp"

namespace simty::fleet {
namespace {

CohortSpec rich_spec() {
  CohortSpec spec;
  spec.name = "rich";
  spec.min_apps = 3;
  spec.max_apps = 9;
  spec.wearable_fraction = 0.3;
  spec.degraded_network_fraction = 0.4;
  return spec;
}

TEST(CohortSampler, StreamIsByteIdenticalRegardlessOfFleetSize) {
  const CohortSpec spec = rich_spec();
  // "Stream" of the first 16 devices rendered to text, sampled three ways:
  // alone, as the prefix of a 200-device pass, and shard-by-shard in
  // reverse shard order. All three must be byte-identical.
  std::string alone;
  for (std::uint64_t i = 0; i < 16; ++i) {
    alone += describe(sample_device(spec, 42, i));
  }
  std::string prefix;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::string d = describe(sample_device(spec, 42, i));
    if (i < 16) prefix += d;
  }
  std::string sharded(alone.size(), '\0');
  std::string tail, head;
  for (std::uint64_t i = 8; i < 16; ++i) {
    tail += describe(sample_device(spec, 42, i));
  }
  for (std::uint64_t i = 0; i < 8; ++i) {
    head += describe(sample_device(spec, 42, i));
  }
  sharded = head + tail;
  EXPECT_EQ(alone, prefix);
  EXPECT_EQ(alone, sharded);
}

TEST(CohortSampler, RepeatedSamplingIsIdentical) {
  const CohortSpec spec = rich_spec();
  EXPECT_EQ(describe(sample_device(spec, 7, 123)),
            describe(sample_device(spec, 7, 123)));
}

TEST(CohortSampler, DevicesSeedsAndCohortsDiffer) {
  const CohortSpec spec = rich_spec();
  EXPECT_NE(describe(sample_device(spec, 7, 0)),
            describe(sample_device(spec, 7, 1)));
  EXPECT_NE(describe(sample_device(spec, 7, 0)),
            describe(sample_device(spec, 8, 0)));
  CohortSpec renamed = spec;
  renamed.name = "other";
  EXPECT_NE(describe(sample_device(spec, 7, 0)),
            describe(sample_device(renamed, 7, 0)));
}

TEST(CohortSampler, SampleRespectsSpecBounds) {
  const CohortSpec spec = rich_spec();
  const std::size_t catalog_size = apps::table3_catalog().size();
  for (std::uint64_t i = 0; i < 256; ++i) {
    const DeviceSample s = sample_device(spec, 3, i);
    ASSERT_GE(s.catalog.size(), spec.min_apps);
    ASSERT_LE(s.catalog.size(), spec.max_apps);
    ASSERT_LE(s.catalog.size(), catalog_size);
    std::set<std::string> names;
    for (const apps::AppProfile& p : s.catalog) {
      names.insert(p.name);
      ASSERT_GE(p.alpha, 0.0);
      ASSERT_LE(p.alpha, 1.0);
      ASSERT_GE(p.repeat, Duration::seconds(1));
    }
    ASSERT_EQ(names.size(), s.catalog.size()) << "duplicate app in catalog";
    ASSERT_GE(s.beta, spec.beta_lo);
    ASSERT_LT(s.beta, spec.beta_hi);
    ASSERT_GE(s.power_scale, spec.power_scale_lo);
    ASSERT_LT(s.power_scale, spec.power_scale_hi);
    if (s.degraded_network) {
      ASSERT_GE(s.hold_factor, 1.0);
      ASSERT_LT(s.hold_factor, spec.degraded_hold_factor_max);
    } else {
      ASSERT_EQ(s.hold_factor, 1.0);
    }
  }
}

TEST(CohortSampler, FractionsAreApproximatelyRespected) {
  CohortSpec spec = rich_spec();
  spec.wearable_fraction = 0.25;
  spec.degraded_network_fraction = 0.5;
  int wearables = 0, degraded = 0;
  const int n = 2000;
  for (std::uint64_t i = 0; i < n; ++i) {
    const DeviceSample s = sample_device(spec, 9, i);
    wearables += s.wearable ? 1 : 0;
    degraded += s.degraded_network ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(wearables) / n, 0.25, 0.05);
  EXPECT_NEAR(static_cast<double>(degraded) / n, 0.5, 0.05);
}

TEST(CohortSampler, WearableSamplesUseTheWearableProfile) {
  CohortSpec spec = rich_spec();
  spec.wearable_fraction = 1.0;
  spec.power_scale_lo = spec.power_scale_hi = 1.0;
  const DeviceSample s = sample_device(spec, 1, 0);
  EXPECT_TRUE(s.wearable);
  EXPECT_EQ(s.power_model.sleep.mw(), hw::PowerModel::wearable().sleep.mw());
}

TEST(ScalePowerModel, ScalesRailsAndImpulsesOnly) {
  const hw::PowerModel base = hw::PowerModel::nexus5();
  const hw::PowerModel scaled = scale_power_model(base, 2.0);
  EXPECT_EQ(scaled.sleep.mw(), base.sleep.mw() * 2.0);
  EXPECT_EQ(scaled.awake_base.mw(), base.awake_base.mw() * 2.0);
  EXPECT_EQ(scaled.wake_transition.mj(), base.wake_transition.mj() * 2.0);
  EXPECT_EQ(scaled.wake_latency.us(), base.wake_latency.us());
  EXPECT_EQ(scaled.idle_linger.us(), base.idle_linger.us());
  for (std::size_t i = 0; i < scaled.components.size(); ++i) {
    EXPECT_EQ(scaled.components[i].active.mw(),
              base.components[i].active.mw() * 2.0);
    EXPECT_EQ(scaled.components[i].activation.mj(),
              base.components[i].activation.mj() * 2.0);
    EXPECT_EQ(scaled.components[i].tail.us(), base.components[i].tail.us());
    EXPECT_EQ(scaled.components[i].serial_fraction,
              base.components[i].serial_fraction);
  }
}

TEST(CohortSpecValidate, RejectsOutOfRangeFields) {
  CohortSpec bad = rich_spec();
  bad.min_apps = 0;
  EXPECT_THROW(bad.validate(), std::logic_error);
  bad = rich_spec();
  bad.min_apps = 9;
  bad.max_apps = 3;
  EXPECT_THROW(bad.validate(), std::logic_error);
  bad = rich_spec();
  bad.max_apps = 99;
  EXPECT_THROW(bad.validate(), std::logic_error);
  bad = rich_spec();
  bad.rein_jitter = 1.0;
  EXPECT_THROW(bad.validate(), std::logic_error);
  bad = rich_spec();
  bad.beta_lo = 0.99;
  bad.beta_hi = 0.9;
  EXPECT_THROW(bad.validate(), std::logic_error);
  bad = rich_spec();
  bad.weight = 0.0;
  EXPECT_THROW(bad.validate(), std::logic_error);
  bad = rich_spec();
  bad.degraded_hold_factor_max = 0.5;
  EXPECT_THROW(bad.validate(), std::logic_error);
  bad = rich_spec();
  bad.standby = Duration::zero();
  EXPECT_THROW(bad.validate(), std::logic_error);
  EXPECT_NO_THROW(rich_spec().validate());
  for (const CohortSpec& c : default_cohorts()) EXPECT_NO_THROW(c.validate());
}

TEST(CohortFile, ParsesSectionsAndKeys) {
  const std::vector<CohortSpec> cohorts = parse_cohorts(
      "# a comment\n"
      "[phones]\n"
      "weight = 3\n"
      "apps = 2 6\n"
      "rein_jitter = 0.1\n"
      "alpha_jitter = 0.05\n"
      "beta = 0.9 0.95\n"
      "standby_minutes = 30\n"
      "system_alarms = on\n"
      "\n"
      "[watches]   # trailing comment\n"
      "wearable_fraction = 1\n"
      "power_scale = 0.8 1.2\n"
      "degraded_fraction = 0.25\n"
      "degraded_hold_max = 3\n");
  ASSERT_EQ(cohorts.size(), 2u);
  EXPECT_EQ(cohorts[0].name, "phones");
  EXPECT_EQ(cohorts[0].weight, 3.0);
  EXPECT_EQ(cohorts[0].min_apps, 2u);
  EXPECT_EQ(cohorts[0].max_apps, 6u);
  EXPECT_EQ(cohorts[0].rein_jitter, 0.1);
  EXPECT_EQ(cohorts[0].alpha_jitter, 0.05);
  EXPECT_EQ(cohorts[0].beta_lo, 0.9);
  EXPECT_EQ(cohorts[0].beta_hi, 0.95);
  EXPECT_EQ(cohorts[0].standby.us(), Duration::minutes(30).us());
  EXPECT_TRUE(cohorts[0].system_alarms);
  EXPECT_EQ(cohorts[1].name, "watches");
  EXPECT_EQ(cohorts[1].wearable_fraction, 1.0);
  EXPECT_EQ(cohorts[1].power_scale_lo, 0.8);
  EXPECT_EQ(cohorts[1].power_scale_hi, 1.2);
  EXPECT_EQ(cohorts[1].degraded_network_fraction, 0.25);
  EXPECT_EQ(cohorts[1].degraded_hold_factor_max, 3.0);
  EXPECT_FALSE(cohorts[1].system_alarms);
}

TEST(CohortFile, RejectsMalformedInput) {
  EXPECT_THROW(parse_cohorts(""), std::runtime_error);
  EXPECT_THROW(parse_cohorts("weight = 1\n"), std::runtime_error);       // no section
  EXPECT_THROW(parse_cohorts("[a\nweight = 1\n"), std::runtime_error);   // unterminated
  EXPECT_THROW(parse_cohorts("[]\n"), std::runtime_error);               // empty name
  EXPECT_THROW(parse_cohorts("[a]\nbogus = 1\n"), std::runtime_error);   // unknown key
  EXPECT_THROW(parse_cohorts("[a]\nweight one\n"), std::runtime_error);  // no '='
  EXPECT_THROW(parse_cohorts("[a]\nweight = x\n"), std::runtime_error);  // bad number
  EXPECT_THROW(parse_cohorts("[a]\napps = 4\n"), std::runtime_error);    // arity
  EXPECT_THROW(parse_cohorts("[a]\nsystem_alarms = yes\n"), std::runtime_error);
  // Non-finite and hex numbers are rejected on their line, like the CLI
  // flags: inf/nan would otherwise slip past every range check.
  for (const char* text :
       {"[a]\nweight = inf\n", "[a]\nweight = nan\n", "[a]\nweight = 0x1p3\n",
        "[a]\npower_scale = 1 inf\n", "[a]\nbeta = nan 0.5\n",
        "[a]\nstandby_minutes = 1e999\n"}) {
    try {
      parse_cohorts(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2: bad number"), std::string::npos)
          << e.what();
    }
  }
  // A huge app count is bounded before its size_t cast, and the message
  // names the real cause.
  try {
    parse_cohorts("[a]\napps = 1 1e30\n");
    FAIL() << "expected apps bound failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2: cohort [a]: apps exceeds"),
              std::string::npos)
        << e.what();
  }
  // Parse-clean but semantically invalid values fail validate() with the
  // cohort named in the message.
  try {
    parse_cohorts("[a]\napps = 1 99\n");
    FAIL() << "expected validation failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("[a]"), std::string::npos);
  }
}

// parse_cohorts' error message for `text`, or "" if it parses.
std::string parse_error(const std::string& text) {
  try {
    parse_cohorts(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(CohortFile, RejectsNonIntegerAppBoundsAndHugeStandbyOnTheirLine) {
  // apps used to go through a double cast (2.7 5.9 ran as 2..5), and a
  // standby past int64 microseconds overflowed into "must be positive".
  EXPECT_NE(parse_error("[a]\nweight = 1\napps = 2.7 5.9\n")
                .find("line 3: apps needs whole numbers in [1, 18]: 2.7"),
            std::string::npos);
  EXPECT_NE(parse_error("[a]\napps = 2 5.5\n").find("line 2: apps needs whole numbers"),
            std::string::npos);
  EXPECT_NE(parse_error("[a]\nweight = 1\nstandby_minutes = 1e300\n")
                .find("line 3: standby_minutes must be positive and fit in int64"),
            std::string::npos);
  const std::vector<CohortSpec> whole = parse_cohorts("[a]\napps = 2 5\n");
  EXPECT_EQ(whole[0].min_apps, 2u);
  EXPECT_EQ(whole[0].max_apps, 5u);
}

TEST(CohortFile, RejectsScaleFactorsPastTheBoundOnTheirLine) {
  // Both used to pass validate(): a 1e300 hold factor overflowed a task's
  // hold into a negative duration (an abort mid-fleet), and a 1e300 power
  // scale printed an inf fleet report.
  EXPECT_NE(parse_error("[a]\ndegraded_fraction = 1\ndegraded_hold_max = 1e300\n")
                .find("line 3: cohort [a]"),
            std::string::npos);
  EXPECT_NE(parse_error("[a]\npower_scale = 1 1e300\n").find("line 2: cohort [a]"),
            std::string::npos);
  const std::vector<CohortSpec> at_bound = parse_cohorts(
      "[a]\ndegraded_fraction = 1\ndegraded_hold_max = 100\npower_scale = 1 100\n");
  EXPECT_EQ(at_bound[0].degraded_hold_factor_max, kMaxCohortFactor);
  EXPECT_EQ(at_bound[0].power_scale_hi, kMaxCohortFactor);
}

TEST(CohortFile, RejectsDuplicateKeysWithLineNumber) {
  // A repeated key inside one cohort is a silent last-wins footgun; the
  // parser must name the offending line.
  try {
    parse_cohorts(
        "[a]\n"
        "weight = 1\n"
        "rein_jitter = 0.1\n"
        "weight = 2\n");
    FAIL() << "expected duplicate-key failure";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate key: weight"), std::string::npos) << what;
  }
  // The same key in different cohorts is fine — the set resets per section.
  EXPECT_NO_THROW(parse_cohorts(
      "[a]\n"
      "weight = 1\n"
      "[b]\n"
      "weight = 2\n"));
}

TEST(Apportion, IsExactDeterministicAndOrdered) {
  std::vector<CohortSpec> cohorts(3);
  cohorts[0].weight = 2.0;
  cohorts[1].weight = 1.0;
  cohorts[2].weight = 1.0;
  const std::vector<std::uint64_t> counts = apportion_devices(10, cohorts);
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0] + counts[1] + counts[2], 10u);
  EXPECT_EQ(counts[0], 5u);
  EXPECT_EQ(counts[1], 3u);  // remainder device goes to the earlier cohort
  EXPECT_EQ(counts[2], 2u);
  EXPECT_EQ(apportion_devices(10, cohorts), counts);  // deterministic

  // Fewer devices than cohorts: earlier cohorts win the remainder.
  const std::vector<std::uint64_t> tiny = apportion_devices(1, cohorts);
  EXPECT_EQ(tiny[0], 1u);
  EXPECT_EQ(tiny[1], 0u);
  EXPECT_EQ(tiny[2], 0u);

  // Weights that divide evenly leave no remainder to hand out.
  const std::vector<std::uint64_t> even = apportion_devices(400, cohorts);
  EXPECT_EQ(even[0], 200u);
  EXPECT_EQ(even[1], 100u);
  EXPECT_EQ(even[2], 100u);
}

}  // namespace
}  // namespace simty::fleet
