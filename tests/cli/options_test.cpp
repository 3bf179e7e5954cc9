#include "cli/options.hpp"

#include <gtest/gtest.h>

namespace simty::cli {
namespace {

ParseResult parse(std::initializer_list<std::string> args) {
  return parse_args(std::vector<std::string>(args));
}

TEST(CliOptions, DefaultsWithNoFlags) {
  const ParseResult r = parse({});
  ASSERT_TRUE(r.ok());
  const RunPlan& p = *r.plan;
  EXPECT_EQ(p.policies,
            (std::vector<exp::PolicyKind>{exp::PolicyKind::kNative,
                                          exp::PolicyKind::kSimty}));
  EXPECT_EQ(p.config.workload, exp::WorkloadKind::kLight);
  EXPECT_EQ(p.config.duration, Duration::hours(3));
  EXPECT_DOUBLE_EQ(p.config.beta, 0.96);
  EXPECT_EQ(p.repetitions, 3);
  EXPECT_TRUE(p.config.system_alarms);
  EXPECT_FALSE(p.show_help);
}

TEST(CliOptions, ParsesPolicyLists) {
  const ParseResult r = parse({"--policy", "exact,simty-dur"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.plan->policies,
            (std::vector<exp::PolicyKind>{exp::PolicyKind::kExact,
                                          exp::PolicyKind::kSimtyDuration}));
}

TEST(CliOptions, PolicyAllExpands) {
  const ParseResult r = parse({"--policy", "all"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.plan->policies.size(), 4u);
}

TEST(CliOptions, ParsesWorkloadAndApps) {
  const ParseResult r =
      parse({"--workload", "synthetic", "--apps", "42"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.plan->config.workload, exp::WorkloadKind::kSynthetic);
  EXPECT_EQ(r.plan->config.synthetic_apps, 42u);
}

TEST(CliOptions, ParsesDurations) {
  EXPECT_EQ(parse({"--hours", "1.5"}).plan->config.duration, Duration::minutes(90));
  EXPECT_EQ(parse({"--minutes", "30"}).plan->config.duration, Duration::minutes(30));
}

TEST(CliOptions, ParsesNumericFlags) {
  const ParseResult r =
      parse({"--beta", "0.85", "--seed", "9", "--reps", "5", "--hw-levels", "4"});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.plan->config.beta, 0.85);
  EXPECT_EQ(r.plan->config.seed, 9u);
  EXPECT_EQ(r.plan->repetitions, 5);
  EXPECT_EQ(r.plan->config.similarity.hw_mode,
            alarm::HardwareSimilarityMode::kFourLevel);
}

TEST(CliOptions, ParsesJobs) {
  const ParseResult r = parse({"--jobs", "4"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.plan->jobs, 4);
  // Default is serial.
  EXPECT_EQ(parse({}).plan->jobs, 1);
  // auto resolves to at least one worker.
  const ParseResult a = parse({"--jobs", "auto"});
  ASSERT_TRUE(a.ok());
  EXPECT_GE(a.plan->jobs, 1);
}

TEST(CliOptions, ParsesPathsAndToggles) {
  const ParseResult r = parse({"--csv", "out.csv", "--delivery-log", "log.csv",
                               "--waveform", "wave.csv", "--no-system-alarms"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.plan->csv_path, "out.csv");
  EXPECT_EQ(r.plan->delivery_log_path, "log.csv");
  EXPECT_EQ(r.plan->waveform_path, "wave.csv");
  EXPECT_FALSE(r.plan->config.system_alarms);
  EXPECT_FALSE(parse({"--waveform"}).ok());
  EXPECT_FALSE(parse({}).plan->config.doze);
  EXPECT_TRUE(parse({"--doze"}).plan->config.doze);
}

TEST(CliOptions, ParsesTracePaths) {
  const ParseResult r =
      parse({"--trace", "run.bin", "--trace-json", "run.json"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.plan->trace_path, "run.bin");
  EXPECT_EQ(r.plan->trace_json_path, "run.json");
  EXPECT_FALSE(parse({}).plan->trace_path.has_value());
  EXPECT_FALSE(parse({"--trace"}).ok());
  EXPECT_FALSE(parse({"--trace-json"}).ok());
  EXPECT_NE(usage().find("--trace"), std::string::npos);
  EXPECT_NE(usage().find("--delivery-log"), std::string::npos);
}

TEST(CliOptions, ParsesSnapshotFlags) {
  const ParseResult save = parse(
      {"--snapshot-at", "60", "--save-snapshot", "snap", "--hours", "3"});
  ASSERT_TRUE(save.ok());
  EXPECT_EQ(*save.plan->snapshot_at, Duration::minutes(60));
  EXPECT_EQ(save.plan->save_snapshot_path, "snap");
  const ParseResult restore = parse({"--restore-snapshot", "snap"});
  ASSERT_TRUE(restore.ok());
  EXPECT_EQ(restore.plan->restore_snapshot_path, "snap");
  EXPECT_NE(usage().find("--save-snapshot"), std::string::npos);
  EXPECT_NE(usage().find("--restore-snapshot"), std::string::npos);
}

TEST(CliOptions, RejectsInconsistentSnapshotFlags) {
  // Save and the pause mark must travel together.
  EXPECT_FALSE(parse({"--save-snapshot", "snap"}).ok());
  EXPECT_FALSE(parse({"--snapshot-at", "60"}).ok());
  EXPECT_FALSE(parse({"--snapshot-at", "0", "--save-snapshot", "s"}).ok());
  EXPECT_FALSE(parse({"--snapshot-at", "abc", "--save-snapshot", "s"}).ok());
  // The mark must fall strictly inside the run.
  EXPECT_FALSE(parse({"--minutes", "90", "--snapshot-at", "90",
                      "--save-snapshot", "s"}).ok());
  // Save and restore in one invocation is a contradiction.
  EXPECT_FALSE(parse({"--snapshot-at", "60", "--save-snapshot", "s",
                      "--restore-snapshot", "s"}).ok());
  // Snapshots are of experiment runs; a fleet run takes no snapshot flag.
  EXPECT_FALSE(parse({"--fleet", "100", "--restore-snapshot", "s"}).ok());
  EXPECT_FALSE(parse({"--fleet", "100", "--snapshot-at", "60",
                      "--save-snapshot", "s"}).ok());
  // The waveform monitor does not serialize with the run.
  EXPECT_FALSE(parse({"--waveform", "w.csv", "--restore-snapshot", "s"}).ok());
  EXPECT_FALSE(parse({"--waveform", "w.csv", "--snapshot-at", "60",
                      "--save-snapshot", "s"}).ok());
}

TEST(CliOptions, HelpShortCircuits) {
  const ParseResult r = parse({"--help", "--bogus-after-help"});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.plan->show_help);
  EXPECT_NE(usage().find("--policy"), std::string::npos);
}

TEST(CliOptions, RejectsBadInput) {
  EXPECT_FALSE(parse({"--policy", "doze"}).ok());
  EXPECT_FALSE(parse({"--policy"}).ok());
  EXPECT_FALSE(parse({"--workload", "extreme"}).ok());
  EXPECT_FALSE(parse({"--beta", "1.5"}).ok());
  EXPECT_FALSE(parse({"--beta", "abc"}).ok());
  EXPECT_FALSE(parse({"--hours", "-1"}).ok());
  EXPECT_FALSE(parse({"--apps", "0"}).ok());
  EXPECT_FALSE(parse({"--reps", "0"}).ok());
  EXPECT_FALSE(parse({"--jobs", "0"}).ok());
  EXPECT_FALSE(parse({"--jobs", "-2"}).ok());
  EXPECT_FALSE(parse({"--jobs", "many"}).ok());
  // Past INT_MAX: used to wrap in the cast to int (2^32 + 1 ran 1 rep).
  EXPECT_FALSE(parse({"--reps", "4294967297"}).ok());
  EXPECT_FALSE(parse({"--jobs", "4294967297"}).ok());
  EXPECT_FALSE(parse({"--jobs"}).ok());
  EXPECT_FALSE(parse({"--hw-levels", "5"}).ok());
  EXPECT_FALSE(parse({"--frobnicate"}).ok());
  // Errors carry a pointer to --help.
  EXPECT_NE(parse({"--frobnicate"}).error.find("--help"), std::string::npos);
  // A duration that is not a number is quoted; only a number out of range
  // gets the bound.
  const std::vector<std::vector<std::string>> not_numbers = {
      {"--snapshot-at", "60m", "--save-snapshot", "s"},
      {"--hours", "3h"},
      {"--drx-cycle", "abc"},
  };
  for (const std::vector<std::string>& args : not_numbers) {
    const std::string error = parse_args(args).error;
    EXPECT_EQ(error.rfind(args[0] + " needs", 0), 0u) << error;
    EXPECT_NE(error.find("'" + args[1] + "' is not a number"), std::string::npos)
        << error;
    EXPECT_EQ(error.find("at most"), std::string::npos) << error;
  }
  // Fleet mode reads only its own flags; any other is named, not ignored.
  const std::vector<std::vector<std::string>> not_fleet = {
      {"--csv", "x.csv"},       {"--minutes", "3"},
      {"--hours", "3"},         {"--workload", "heavy"},
      {"--apps", "4"},          {"--beta", "0.5"},
      {"--reps", "2"},          {"--delivery-log", "d.csv"},
      {"--waveform", "w.csv"},  {"--doze"},
      {"--drx-cycle", "1280"},  {"--no-system-alarms"},
      {"--fixed-interval", "60"},
  };
  for (const std::vector<std::string>& extra : not_fleet) {
    std::vector<std::string> args = {"--fleet", "10"};
    args.insert(args.end(), extra.begin(), extra.end());
    const std::string error = parse_args(args).error;
    EXPECT_EQ(error.rfind(extra[0] + " does not apply to --fleet", 0), 0u) << error;
  }
}

TEST(CliOptions, FleetModeTakesItsOwnFlags) {
  const ParseResult r =
      parse({"--fleet", "10", "--policy", "all", "--seed", "3", "--jobs", "2",
             "--hw-levels", "4", "--cohorts", "c.conf", "--fleet-csv", "f.csv",
             "--trace", "t.bin", "--trace-json", "t.json"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(*r.plan->fleet_devices, 10u);
  EXPECT_EQ(r.plan->fleet_csv_path, "f.csv");
}

TEST(CliOptions, RejectsAnOutputPathWhoseDirectoryIsMissing) {
  // Checked before any run: the write itself comes after every simulation.
  const std::string missing = ::testing::TempDir() + "simty-no-such-dir/out";
  const std::vector<std::vector<std::string>> rows = {
      {"--csv", missing},
      {"--waveform", missing},
      {"--delivery-log", missing},
      {"--trace", missing},
      {"--trace-json", missing},
      {"--fleet", "10", "--fleet-csv", missing},
      {"--snapshot-at", "5", "--save-snapshot", missing},
  };
  for (const std::vector<std::string>& args : rows) {
    const std::string& flag = args[args.size() - 2];
    const std::string error = parse_args(args).error;
    EXPECT_EQ(error.rfind(flag + " " + missing + ": directory ", 0), 0u) << error;
    EXPECT_NE(error.find("does not exist"), std::string::npos) << error;
  }
  // A directory is not a file to write.
  const std::string dir = ::testing::TempDir();
  EXPECT_EQ(parse({"--csv", dir}).error.rfind("--csv " + dir + ": is a directory", 0), 0u);
  // A bare file name is in the working directory; an existing one is fine.
  EXPECT_TRUE(parse({"--csv", "out.csv"}).ok());
  EXPECT_TRUE(parse({"--csv", ::testing::TempDir() + "out.csv"}).ok());
}

TEST(CliOptions, RejectsNonFiniteAndHexDoubles) {
  // std::stod accepts all of these; the CLI must not. "nan" in particular
  // used to sail through --beta's range check (nan < 0.0 is false) and
  // poison every downstream energy figure.
  for (const char* flag : {"--beta", "--hours", "--minutes", "--snapshot-at"}) {
    EXPECT_FALSE(parse({flag, "nan"}).ok()) << flag;
    EXPECT_FALSE(parse({flag, "NaN"}).ok()) << flag;
    EXPECT_FALSE(parse({flag, "inf"}).ok()) << flag;
    EXPECT_FALSE(parse({flag, "-inf"}).ok()) << flag;
    EXPECT_FALSE(parse({flag, "infinity"}).ok()) << flag;
    EXPECT_FALSE(parse({flag, "0x1p3"}).ok()) << flag;
    EXPECT_FALSE(parse({flag, "0X10"}).ok()) << flag;
    EXPECT_FALSE(parse({flag, ""}).ok()) << flag;
    EXPECT_FALSE(parse({flag, "1e999"}).ok()) << flag;  // overflows to inf
  }
  // Ordinary decimal and scientific notation still parse.
  EXPECT_TRUE(parse({"--hours", "2.5"}).ok());
  EXPECT_TRUE(parse({"--hours", "1e1"}).ok());
}

TEST(CliOptions, RejectsDurationsPastInt64Microseconds) {
  // Each used to reach Duration::from_seconds, whose llround overflowed to
  // a negative duration: an abort, or --drx-cycle blaming the on-duration.
  // Each is a usage error that names its flag.
  const std::vector<std::vector<std::string>> rows = {
      {"--hours", "1e300"},
      {"--minutes", "1e300"},
      {"--fixed-interval", "1e300"},
      {"--snapshot-at", "1e300", "--save-snapshot", "s"},
      {"--drx-cycle", "1e300"},
      {"--drx-cycle", "1000", "--wur", "--wur-budget", "1e300"},
  };
  for (const std::vector<std::string>& args : rows) {
    const std::string& flag = args[args.size() == 5 ? 3 : 0];
    const ParseResult r = parse_args(args);
    EXPECT_FALSE(r.ok()) << flag;
    EXPECT_EQ(r.error.rfind(flag + " needs", 0), 0u) << r.error;
    EXPECT_NE(r.error.find("(at most "), std::string::npos) << r.error;
  }
  // The largest count that fits still parses, to the microsecond.
  const ParseResult edge = parse({"--minutes", "153722867280"});
  ASSERT_TRUE(edge.ok()) << edge.error;
  EXPECT_EQ(edge.plan->config.duration, Duration::minutes(153722867280));
  // A count that rounds to zero microseconds is not positive.
  EXPECT_FALSE(parse({"--hours", "1e-12"}).ok());
}

TEST(CliOptions, ParsesFixedIntervalPolicy) {
  const ParseResult r =
      parse({"--policy", "fixed", "--fixed-interval", "120"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.plan->policies,
            (std::vector<exp::PolicyKind>{exp::PolicyKind::kFixedInterval}));
  EXPECT_EQ(r.plan->config.fixed_interval, Duration::seconds(120));
  // 'all' stays the four paper policies; FIXED is opt-in by name.
  EXPECT_EQ(parse({"--policy", "all"}).plan->policies.size(), 4u);
  EXPECT_FALSE(parse({"--fixed-interval", "0"}).ok());
}

TEST(CliOptions, ParsesDrxAndWurFlags) {
  const ParseResult off = parse({});
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off.plan->config.drx.has_value());

  const ParseResult drx = parse({"--drx-cycle", "640"});
  ASSERT_TRUE(drx.ok());
  ASSERT_TRUE(drx.plan->config.drx.has_value());
  EXPECT_EQ(drx.plan->config.drx->paging_cycle, Duration::millis(640));
  EXPECT_FALSE(drx.plan->config.drx->wur);

  const ParseResult wur =
      parse({"--drx-cycle", "1280", "--wur", "--wur-budget", "500"});
  ASSERT_TRUE(wur.ok());
  ASSERT_TRUE(wur.plan->config.drx.has_value());
  EXPECT_TRUE(wur.plan->config.drx->wur);
  EXPECT_EQ(wur.plan->config.drx->wur_delay_budget, Duration::millis(500));

  // Order independence: --wur may precede --drx-cycle.
  EXPECT_TRUE(parse({"--wur", "--drx-cycle", "1280"}).ok());

  EXPECT_FALSE(parse({"--wur"}).ok());                    // needs --drx-cycle
  EXPECT_FALSE(parse({"--wur-budget", "100"}).ok());      // needs --wur
  EXPECT_FALSE(parse({"--drx-cycle", "0"}).ok());
  EXPECT_FALSE(parse({"--drx-cycle", "5"}).ok());         // < on-duration
  EXPECT_FALSE(
      parse({"--drx-cycle", "1280", "--wur", "--wur-budget", "-1"}).ok());
}

}  // namespace
}  // namespace simty::cli
