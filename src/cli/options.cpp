#include "cli/options.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <utility>

#include "common/strings.hpp"
#include "exp/experiment.hpp"

namespace simty::cli {

namespace {

// Bound for flags stored as int, checked before the narrowing cast.
constexpr long long kMaxInt = std::numeric_limits<int>::max();
constexpr long long kMaxLong = std::numeric_limits<long long>::max();

ParseResult fail(const std::string& message) {
  return ParseResult{std::nullopt, message + " (see --help)"};
}

// Flags that take a path and only store it.
const std::pair<const char*, std::optional<std::string> RunPlan::*> kPathFlags[] = {
    {"--cohorts", &RunPlan::cohorts_path},
    {"--fleet-csv", &RunPlan::fleet_csv_path},
    {"--save-snapshot", &RunPlan::save_snapshot_path},
    {"--restore-snapshot", &RunPlan::restore_snapshot_path},
    {"--csv", &RunPlan::csv_path},
    {"--delivery-log", &RunPlan::delivery_log_path},
    {"--waveform", &RunPlan::waveform_path},
    {"--trace", &RunPlan::trace_path},
    {"--trace-json", &RunPlan::trace_json_path},
};

}  // namespace

ParseResult parse_args(const std::vector<std::string>& args) {
  RunPlan plan;
  bool policies_set = false;
  bool wur = false;
  std::optional<Duration> wur_budget;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= args.size()) return std::nullopt;
      return args[++i];
    };
    // The flag's value parsed as a finite number / an integer in range.
    auto number = [&] {
      const auto v = value();
      return v ? parse_double(*v) : std::nullopt;
    };
    auto integer = [&](long long min, long long max) {
      const auto v = value();
      return v ? parse_int(*v, min, max) : std::nullopt;
    };

    if (arg == "--help" || arg == "-h") {
      plan.show_help = true;
      return ParseResult{plan, ""};
    }
    const auto path_flag =
        std::find_if(std::begin(kPathFlags), std::end(kPathFlags),
                     [&](const auto& flag) { return arg == flag.first; });
    if (path_flag != std::end(kPathFlags)) {
      const auto v = value();
      if (!v) return fail(arg + " needs a path");
      plan.*path_flag->second = *v;
      continue;
    }
    if (arg == "--policy") {
      const auto v = value();
      if (!v) return fail("--policy needs a value");
      if (!policies_set) {
        plan.policies.clear();
        policies_set = true;
      }
      for (const std::string& name : split(*v, ',')) {
        if (name == "all") {
          plan.policies = {exp::PolicyKind::kExact, exp::PolicyKind::kNative,
                           exp::PolicyKind::kSimty, exp::PolicyKind::kSimtyDuration};
          continue;
        }
        const auto p = exp::parse_policy(name);
        if (!p) return fail("unknown policy: " + name);
        plan.policies.push_back(*p);
      }
      continue;
    }
    if (arg == "--workload") {
      const auto v = value();
      if (!v) return fail("--workload needs a value");
      const auto w = exp::parse_workload(*v);
      if (!w) return fail("unknown workload: " + *v);
      plan.config.workload = *w;
      continue;
    }
    if (arg == "--apps") {
      const auto n = integer(1, kMaxLong);
      if (!n) return fail("--apps needs a positive integer");
      plan.config.synthetic_apps = static_cast<std::size_t>(*n);
      continue;
    }
    if (arg == "--beta") {
      const auto b = number();
      if (!b || *b < 0.0 || *b >= 1.0) return fail("--beta needs a value in [0, 1)");
      plan.config.beta = *b;
      continue;
    }
    if (arg == "--hours" || arg == "--minutes") {
      const auto n = number();
      if (!n || *n <= 0.0) return fail(arg + " needs a positive value");
      const double unit_s = arg == "--hours" ? 3600.0 : 60.0;
      plan.config.duration = Duration::from_seconds(*n * unit_s);
      continue;
    }
    if (arg == "--seed") {
      const auto n = integer(0, kMaxLong);
      if (!n) return fail("--seed needs a non-negative integer");
      plan.config.seed = static_cast<std::uint64_t>(*n);
      continue;
    }
    if (arg == "--reps") {
      const auto n = integer(1, kMaxInt);
      if (!n) return fail("--reps needs a positive integer");
      plan.repetitions = static_cast<int>(*n);
      continue;
    }
    if (arg == "--jobs") {
      const auto v = value();
      if (!v) return fail("--jobs needs a positive integer or 'auto'");
      if (*v == "auto") {
        plan.jobs = exp::default_jobs();
        continue;
      }
      const auto n = parse_int(*v, 1, kMaxInt);
      if (!n) return fail("--jobs needs a positive integer or 'auto'");
      plan.jobs = static_cast<int>(*n);
      continue;
    }
    if (arg == "--no-system-alarms") {
      plan.config.system_alarms = false;
      continue;
    }
    if (arg == "--doze") {
      plan.config.doze = true;
      continue;
    }
    if (arg == "--fixed-interval") {
      const auto s = number();
      if (!s || *s <= 0.0) return fail("--fixed-interval needs positive seconds");
      plan.config.fixed_interval = Duration::from_seconds(*s);
      continue;
    }
    if (arg == "--drx-cycle") {
      const auto ms = number();
      if (!ms || *ms <= 0.0) return fail("--drx-cycle needs positive milliseconds");
      if (!plan.config.drx) plan.config.drx.emplace();
      plan.config.drx->paging_cycle = Duration::from_seconds(*ms / 1000.0);
      continue;
    }
    if (arg == "--wur") {
      wur = true;
      continue;
    }
    if (arg == "--wur-budget") {
      const auto ms = number();
      if (!ms || *ms < 0.0) return fail("--wur-budget needs non-negative milliseconds");
      wur_budget = Duration::from_seconds(*ms / 1000.0);
      continue;
    }
    if (arg == "--hw-levels") {
      const auto n = integer(2, 4);
      if (!n) return fail("--hw-levels needs 2, 3 or 4");
      using alarm::HardwareSimilarityMode;
      constexpr HardwareSimilarityMode kModes[] = {HardwareSimilarityMode::kTwoLevel,
                                                   HardwareSimilarityMode::kThreeLevel,
                                                   HardwareSimilarityMode::kFourLevel};
      plan.config.similarity.hw_mode = kModes[*n - 2];
      continue;
    }
    if (arg == "--fleet") {
      const auto n = integer(1, kMaxLong);
      if (!n) return fail("--fleet needs a positive device count");
      plan.fleet_devices = static_cast<std::uint64_t>(*n);
      continue;
    }
    if (arg == "--snapshot-at") {
      const auto m = number();
      if (!m || *m <= 0.0) return fail("--snapshot-at needs positive minutes");
      plan.snapshot_at_minutes = *m;
      continue;
    }
    return fail("unknown flag: " + arg);
  }

  if (plan.policies.empty()) return fail("at least one --policy is required");
  if (wur && !plan.config.drx) {
    return fail("--wur requires --drx-cycle (it answers DRX pages)");
  }
  if (wur_budget && !wur) {
    return fail("--wur-budget requires --wur");
  }
  if (plan.config.drx) {
    plan.config.drx->wur = wur;
    if (wur_budget) plan.config.drx->wur_delay_budget = *wur_budget;
    if (plan.config.drx->on_duration >= plan.config.drx->paging_cycle) {
      return fail("--drx-cycle must exceed the 10 ms paging on-duration");
    }
  }
  if (!plan.fleet_devices && plan.cohorts_path) {
    return fail("--cohorts requires --fleet");
  }
  if (!plan.fleet_devices && plan.fleet_csv_path) {
    return fail("--fleet-csv requires --fleet");
  }
  if (plan.save_snapshot_path.has_value() != plan.snapshot_at_minutes.has_value()) {
    return fail("--save-snapshot and --snapshot-at go together");
  }
  if (plan.save_snapshot_path && plan.restore_snapshot_path) {
    return fail("--save-snapshot and --restore-snapshot are exclusive");
  }
  if (plan.fleet_devices &&
      (plan.save_snapshot_path || plan.restore_snapshot_path)) {
    return fail("snapshot flags apply to experiment runs, not --fleet "
                "(fleet shards checkpoint via FleetConfig::checkpoint_dir)");
  }
  if (plan.snapshot_at_minutes &&
      Duration::from_seconds(*plan.snapshot_at_minutes * 60.0) >=
          plan.config.duration) {
    return fail("--snapshot-at must fall inside the run duration");
  }
  if (plan.waveform_path &&
      (plan.save_snapshot_path || plan.restore_snapshot_path)) {
    // The waveform monitor is caller-owned and not serialized, so a resumed
    // run's waveform would silently cover only the tail.
    return fail("--waveform does not snapshot; drop it from save/restore runs");
  }
  return ParseResult{plan, ""};
}

std::string usage() {
  return
      "simty_run — connected-standby experiments with SIMTY wakeup management\n"
      "\n"
      "usage: simty_run [flags]\n"
      "  --policy P[,P...]    native|simty|exact|simty-dur|fixed|all\n"
      "                       (default native,simty; 'all' = the four paper\n"
      "                       policies, 'fixed' must be named explicitly)\n"
      "  --workload W         light|heavy|synthetic (default light)\n"
      "  --apps N             synthetic workload size (default 18)\n"
      "  --beta F             grace factor in [0,1) (default 0.96)\n"
      "  --hours H            standby duration (default 3)\n"
      "  --minutes M          standby duration in minutes\n"
      "  --seed N             base seed (default 1)\n"
      "  --reps N             repetitions averaged (default 3)\n"
      "  --jobs N|auto        parallel workers for the repetitions; results\n"
      "                       are bit-identical to --jobs 1 (default 1,\n"
      "                       auto = $SIMTY_JOBS or the hardware threads)\n"
      "  --no-system-alarms   disable the Android system-alarm mix\n"
      "  --doze               enable AOSP-M-style doze maintenance windows\n"
      "  --fixed-interval S   slot seconds for --policy fixed (default 300)\n"
      "  --drx-cycle MS       enable the downlink DRX/paging scenario with\n"
      "                       this paging cycle (10 ms on-durations)\n"
      "  --wur                answer pages via the wake-up receiver instead\n"
      "                       of DRX listening (requires --drx-cycle)\n"
      "  --wur-budget MS      batch pages for MS after a WuR trigger before\n"
      "                       answering (delay-vs-energy knob, default 0)\n"
      "  --hw-levels 2|3|4    hardware-similarity granularity (default 3)\n"
      "  --fleet N            fleet mode: simulate N devices per policy,\n"
      "                       sampled from cohorts (aggregates are\n"
      "                       bit-identical at any --jobs)\n"
      "  --cohorts FILE       cohort spec file (see EXPERIMENTS.md;\n"
      "                       default: the built-in three-cohort fleet)\n"
      "  --fleet-csv PATH     write full-precision fleet aggregates CSV\n"
      "  --snapshot-at M      with --save-snapshot: pause each policy's\n"
      "                       base-seed run at its first quiescent instant\n"
      "                       past M minutes\n"
      "  --save-snapshot PATH write PATH.<POLICY> snapshot files and exit\n"
      "  --restore-snapshot PATH  resume each policy from PATH.<POLICY>;\n"
      "                       capture flags (--delivery-log, --trace) must\n"
      "                       match the save invocation\n"
      "  --csv PATH           write per-policy results CSV\n"
      "  --delivery-log PATH  write the delivery log of the last run\n"
      "  --waveform PATH      write the power waveform of the last run\n"
      "  --trace PATH         write the last policy's base-seed run as a\n"
      "                       binary trace (compare with tools/trace_diff)\n"
      "  --trace-json PATH    same run as Chrome trace JSON (Perfetto)\n"
      "  --help               this text\n";
}

}  // namespace simty::cli
