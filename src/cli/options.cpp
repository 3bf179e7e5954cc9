#include "cli/options.hpp"

#include <filesystem>
#include <set>

#include "common/strings.hpp"
#include "exp/experiment.hpp"

namespace simty::cli {

namespace {

using exp::ExperimentConfig;
using K = FlagKind;

// Bounds checked before the narrowing casts.
constexpr long long kMaxInt = std::numeric_limits<int>::max();
constexpr long long kMax = std::numeric_limits<long long>::max();

ParseResult fail(const std::string& message) {
  return ParseResult{std::nullopt, message + " (see --help)"};
}

// The config flags both tools share, over `c`.
std::vector<Flag> config_flags(ExperimentConfig& c) {
  const auto drx = [&c]() -> net::DrxConfig& { return c.drx ? *c.drx : c.drx.emplace(); };
  return {
      {"--workload", K::kText,
       [&c](const FlagValue& v) {
         const auto w = exp::parse_workload(v.text);
         if (w) c.workload = *w;
         return w.has_value();
       },
       "needs light, heavy or synthetic"},
      {"--apps", K::kInteger, store(c.synthetic_apps), "needs a positive integer", 1},
      {"--hours", K::kDuration, store(c.duration), "needs a positive value", 1, kMax,
       Duration::hours(1)},
      {"--minutes", K::kDuration, store(c.duration), "needs a positive value", 1, kMax,
       Duration::minutes(1)},
      {"--seed", K::kInteger, store(c.seed), "needs a non-negative integer"},
      {"--no-system-alarms", K::kSwitch,
       [&c](const FlagValue&) {
         c.system_alarms = false;
         return true;
       }},
      {"--doze", K::kSwitch, store(c.doze)},
      {"--fixed-interval", K::kDuration, store(c.fixed_interval), "needs positive seconds",
       1, kMax, Duration::seconds(1)},
      {"--drx-cycle", K::kDuration,
       [drx](const FlagValue& v) {
         drx().paging_cycle = v.duration;
         return true;
       },
       "needs positive milliseconds", 1, kMax, Duration::millis(1)},
      {"--wur", K::kSwitch,
       [drx](const FlagValue&) {
         drx().wur = true;
         return true;
       }},
      {"--wur-budget", K::kDuration,
       [drx](const FlagValue& v) {
         drx().wur_delay_budget = v.duration;
         return true;
       },
       "needs non-negative milliseconds", 0, kMax, Duration::millis(1)},
      {"--hw-levels", K::kInteger,
       [&c](const FlagValue& v) {  // the modes are declared in level order
         c.similarity.hw_mode = static_cast<alarm::HardwareSimilarityMode>(v.integer - 2);
         return true;
       },
       "needs 2, 3 or 4", 2, 4},
  };
}

// simty_run's own flags, over `p`.
std::vector<Flag> run_flags(RunPlan& p) {
  return {
      {"--policy", K::kText,
       [&p](const FlagValue& v) {
         p.policies.clear();
         for (const std::string& name : split(v.text, ',')) {
           if (name == "all") {
             using P = exp::PolicyKind;
             p.policies.insert(p.policies.end(),
                               {P::kExact, P::kNative, P::kSimty, P::kSimtyDuration});
           } else if (const auto policy = exp::parse_policy(name)) {
             p.policies.push_back(*policy);
           } else {
             return false;
           }
         }
         return true;
       },
       "needs native|simty|exact|simty-dur|fixed|all"},
      // The base β of every run; simty_query --beta is a switch's β instead.
      {"--beta", K::kNumber,
       [&p](const FlagValue& v) {
         p.config.beta = v.number;
         return v.number >= 0.0 && v.number < 1.0;
       },
       "needs a value in [0, 1)"},
      {"--reps", K::kInteger, store(p.repetitions), "needs a positive integer", 1,
       kMaxInt},
      {"--jobs", K::kText,
       [&p](const FlagValue& v) {
         const auto n =
             v.text == "auto" ? exp::default_jobs() : parse_int(v.text, 1, kMaxInt);
         if (n) p.jobs = static_cast<int>(*n);
         return n.has_value();
       },
       "needs a positive integer or 'auto'"},
      {"--fleet", K::kInteger, store(p.fleet_devices), "needs a positive device count",
       1},
      {"--snapshot-at", K::kDuration, store(p.snapshot_at), "needs positive minutes", 1,
       kMax, Duration::minutes(1)},
      {"--cohorts", K::kText, store(p.cohorts_path), "needs a path"},
      {"--fleet-csv", K::kOutputPath, store(p.fleet_csv_path), "needs a path"},
      {"--save-snapshot", K::kOutputPath, store(p.save_snapshot_path), "needs a path"},
      {"--restore-snapshot", K::kText, store(p.restore_snapshot_path), "needs a path"},
      {"--csv", K::kOutputPath, store(p.csv_path), "needs a path"},
      {"--delivery-log", K::kOutputPath, store(p.delivery_log_path), "needs a path"},
      {"--waveform", K::kOutputPath, store(p.waveform_path), "needs a path"},
      {"--trace", K::kOutputPath, store(p.trace_path), "needs a path"},
      {"--trace-json", K::kOutputPath, store(p.trace_json_path), "needs a path"},
  };
}

// Reads row `f`'s value from args[i + 1], advancing i, and applies it: "" or
// the usage error (for a duration, the largest count when the text is a
// number out of range, else the quoted text; for an output path, the missing
// directory or that the path is one).
std::string apply(const Flag& f, const std::vector<std::string>& args, std::size_t& i) {
  const std::string error = std::string(f.name) + " " + f.error;
  FlagValue v;
  if (f.kind != K::kSwitch) {
    if (i + 1 >= args.size()) return error;
    v.text = args[++i];
  }
  if (f.kind == K::kInteger) {
    const auto n = parse_int(v.text, f.min, f.max);
    if (!n) return error;
    v.integer = *n;
  } else if (f.kind == K::kNumber) {
    const auto n = parse_double(v.text);
    if (!n) return error;
    v.number = *n;
  } else if (f.kind == K::kDuration) {
    const auto d = parse_duration(v.text, f.unit);
    if (!d || d->us() < f.min || d->us() > f.max) {
      if (!parse_double(v.text)) return error + ": '" + v.text + "' is not a number";
      return error + str_format(" (at most %.6g)", static_cast<double>(f.max) /
                                                       static_cast<double>(f.unit.us()));
    }
    v.duration = *d;
  } else if (f.kind == K::kOutputPath) {
    const std::filesystem::path dir = std::filesystem::path(v.text).parent_path();
    if (!dir.empty() && !std::filesystem::is_directory(dir)) {
      return std::string(f.name) + " " + v.text + ": directory " + dir.string() +
             " does not exist";
    }
    if (std::filesystem::is_directory(v.text)) {
      return std::string(f.name) + " " + v.text + ": is a directory";
    }
  }
  return f.set(v) ? "" : error;
}

const Flag* find(const std::vector<Flag>& table, const std::string& name) {
  for (const Flag& f : table) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

// parse_flags, recording in `seen` the flags given.
std::string parse_flags(const std::vector<std::string>& args, const std::vector<Flag>& own,
                        ExperimentConfig& config, std::set<std::string>& seen) {
  const std::vector<Flag> shared = config_flags(config);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const Flag* f = find(own, args[i]);
    if (f == nullptr) f = find(shared, args[i]);
    if (f == nullptr) return "unknown flag: " + args[i];
    seen.insert(args[i]);
    if (std::string error = apply(*f, args, i); !error.empty()) return error;
  }
  if (seen.contains("--wur") && !seen.contains("--drx-cycle")) {
    return "--wur requires --drx-cycle (it answers DRX pages)";
  }
  if (seen.contains("--wur-budget") && !seen.contains("--wur")) {
    return "--wur-budget requires --wur";
  }
  if (config.drx && config.drx->on_duration >= config.drx->paging_cycle) {
    return "--drx-cycle must exceed the 10 ms paging on-duration";
  }
  return "";
}

// The flags a fleet run reads: its cohorts set each device's workload and
// duration, so any other flag is rejected rather than ignored.
const std::set<std::string> kFleetFlags = {"--fleet", "--policy", "--seed",
                                           "--jobs", "--hw-levels", "--cohorts",
                                           "--fleet-csv", "--trace", "--trace-json"};

}  // namespace

std::string parse_flags(const std::vector<std::string>& args,
                        const std::vector<Flag>& own, ExperimentConfig& config) {
  std::set<std::string> seen;
  return parse_flags(args, own, config, seen);
}

ParseResult parse_args(const std::vector<std::string>& args) {
  RunPlan plan;
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      plan.show_help = true;
      return ParseResult{plan, ""};
    }
  }
  std::set<std::string> seen;
  if (const std::string error = parse_flags(args, run_flags(plan), plan.config, seen);
      !error.empty()) {
    return fail(error);
  }
  if (plan.policies.empty()) return fail("at least one --policy is required");
  if (plan.fleet_devices) {
    for (const std::string& flag : seen) {
      if (!kFleetFlags.contains(flag)) {
        std::string reads;
        for (const std::string& name : kFleetFlags) reads += " " + name;
        return fail(flag + " does not apply to --fleet, which reads only" + reads);
      }
    }
  }
  if (!plan.fleet_devices && plan.cohorts_path) {
    return fail("--cohorts requires --fleet");
  }
  if (!plan.fleet_devices && plan.fleet_csv_path) {
    return fail("--fleet-csv requires --fleet");
  }
  if (plan.save_snapshot_path.has_value() != plan.snapshot_at.has_value()) {
    return fail("--save-snapshot and --snapshot-at go together");
  }
  if (plan.save_snapshot_path && plan.restore_snapshot_path) {
    return fail("--save-snapshot and --restore-snapshot are exclusive");
  }
  if (plan.snapshot_at && *plan.snapshot_at >= plan.config.duration) {
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
      "                       bit-identical at any --jobs); takes only\n"
      "                       --policy --seed --jobs --hw-levels --cohorts\n"
      "                       --fleet-csv --trace --trace-json\n"
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
