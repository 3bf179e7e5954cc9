#pragma once
// Experiment harness: assembles the full stack (simulator, device, RTC,
// wakelocks, energy accountant, alarm manager, workload, system alarms),
// runs a connected-standby session, and collects every metric the paper
// reports. Repetitions over seeds are averaged, matching the paper's "three
// times, reported the average" protocol.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "alarm/alarm_manager.hpp"
#include "alarm/similarity.hpp"
#include "apps/workload.hpp"
#include "hw/power_model.hpp"
#include "hw/wur.hpp"
#include "common/arena.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "net/drx.hpp"
#include "power/energy_accounting.hpp"

namespace simty::trace {
class Tracer;
}

namespace simty::snapshot {
class Writer;
class SectionReader;
}

namespace simty::exp {

/// Which alignment policy to run.
enum class PolicyKind { kNative, kSimty, kExact, kSimtyDuration, kFixedInterval };

const char* to_string(PolicyKind p);

/// Inverse of to_string over lowercase names ("native", "simty-dur", ...).
std::optional<PolicyKind> parse_policy(std::string_view name);

/// Which workload to deploy.
enum class WorkloadKind { kLight, kHeavy, kSynthetic };

const char* to_string(WorkloadKind w);

/// Inverse of to_string ("light", "heavy", "synthetic").
std::optional<WorkloadKind> parse_workload(std::string_view name);

/// Full experiment description.
struct ExperimentConfig {
  PolicyKind policy = PolicyKind::kNative;
  alarm::SimilarityConfig similarity;   // for SIMTY variants
  WorkloadKind workload = WorkloadKind::kLight;
  std::size_t synthetic_apps = 18;      // when workload == kSynthetic

  /// When non-empty, overrides `workload`: the resident apps are built from
  /// exactly these profiles (Workload::from_profiles; irregular profiles get
  /// trace-replay imitations like the heavy workload). This is how the
  /// fleet layer runs each device on its sampled per-device catalog.
  std::vector<apps::AppProfile> custom_profiles;
  double beta = apps::kPaperBeta;       // platform grace factor
  Duration duration = Duration::hours(3);
  std::uint64_t seed = 1;
  bool system_alarms = true;

  /// Slot length for PolicyKind::kFixedInterval (ignored otherwise).
  Duration fixed_interval = Duration::seconds(300);

  /// Optional downlink DRX/paging scenario (net/drx.hpp): when set, the run
  /// deploys a net::CellularStandby harness with a DrxPager on this config.
  /// With drx->wur the run also owns a hw::WakeupReceiver (parameters in
  /// `wur` below) that answers pages instead of DRX listening.
  std::optional<net::DrxConfig> drx;

  /// Wake-up receiver parameters, used only when drx && drx->wur.
  hw::WurConfig wur;

  /// Device power model (defaults to the paper-calibrated Nexus 5).
  hw::PowerModel power_model = hw::PowerModel::nexus5();

  /// Enables the AOSP-M-style Doze controller on top of the policy. Doze
  /// intentionally breaks the §3.2.2 guarantees — gap_violations and
  /// worst_gap_ratio in the result quantify the damage.
  bool doze = false;

  /// Mid-run grace-factor switch: at origin + `at` the platform re-grades
  /// every repeating alarm to grace = max(β·repeat, window) and rebatches
  /// (alarm::AlarmManager::apply_grace_factor). β lives only in the switch
  /// event's closure, never in serialized state, so exp::Run snapshots
  /// taken before `at` are byte-identical across configs differing only in
  /// `beta` — the common prefix the sweep server warm-starts from.
  struct BetaSwitch {
    Duration at = Duration::zero();
    double beta = apps::kPaperBeta;
  };
  std::optional<BetaSwitch> beta_switch;

  /// Captures a trace::DeliveryLog inside the run (exp::Run::delivery_log).
  /// Unlike an observer attached through Run::alarm_manager(), the internal
  /// log serializes with the run's snapshot, so a checkpoint-resumed run
  /// exports a byte-identical CSV. Does not force the serial path.
  bool capture_delivery_log = false;

  /// Optional extra power-bus listener (e.g. a caller-owned PowerMonitor
  /// capturing the waveform). Must outlive the run. Caller-owned and not
  /// required to be thread-safe, so it forces the serial path in
  /// run_repeated. Delivery and session observers attach through
  /// Run::alarm_manager() after construction instead.
  hw::PowerListener* extra_power_listener = nullptr;

  /// Optional structured run tracer (see trace/tracer.hpp). Unlike the
  /// power listener above it does NOT force the serial path: the tracer is
  /// installed thread-locally inside the one run that carries it, and
  /// run_repeated keeps it on the base seed only — which is exactly what
  /// makes serial-vs-parallel trace comparison a meaningful determinism
  /// check. Must outlive the run; not thread-safe across runs.
  trace::Tracer* tracer = nullptr;

  /// Per-run storage backing. A non-null arena backs the run's per-run
  /// state: event-queue slabs, the policy, registered alarms and their
  /// registry, batches and queues, apps and their traces, the listener and
  /// observer lists and the interval audit. A caller that runs many
  /// experiments back to back (the fleet shard loop, sweep repetitions)
  /// resets it between runs, so a warmed arena leaves a run a handful of
  /// heap allocations (the fleet-shard alloc gate's budget). Presence of an
  /// arena never changes any result bit. The arena must outlive the run
  /// and, being single-threaded, forces the serial path in run_repeated (the
  /// parallel runner injects its own per-worker arenas when the config
  /// carries none).
  struct ArenaOptions {
    common::Arena* arena = nullptr;
  };
  ArenaOptions arena_opts;
};

/// The β of an optional beta switch as a field of its own (0 on the wire
/// when there is no switch); see for_each_config_field.
template <typename Switch>
struct SwitchBeta {
  Switch& beta_switch;  // [const] std::optional<ExperimentConfig::BetaSwitch>
};

/// Calls f(name, member) for each ExperimentConfig field that can change
/// a result bit, in wire order: the config's one encoding, behind the
/// serve request, both serve cache keys and the Run snapshot fingerprint.
/// The runtime attachments (tracer, arena_opts, extra_power_listener,
/// capture_delivery_log) are not fields. `beta_switch` carries the
/// switch's presence and instant; its β comes last, after `seed`, so the
/// β-blind encoding (prefix key, fingerprint) drops the last field and the
/// seed-blind result key skips the fixed-size one before it.
template <typename Config, typename F>
void for_each_config_field(Config& c, F&& f) {
  f("policy", c.policy);
  f("similarity", c.similarity);
  f("workload", c.workload);
  f("synthetic_apps", c.synthetic_apps);
  f("custom_profiles", c.custom_profiles);
  f("beta", c.beta);
  f("duration", c.duration);
  f("system_alarms", c.system_alarms);
  f("fixed_interval", c.fixed_interval);
  f("doze", c.doze);
  f("beta_switch", c.beta_switch);
  f("drx", c.drx);
  f("wur", c.wur);
  f("power_model", c.power_model);
  f("seed", c.seed);
  f("beta_switch.beta",
    SwitchBeta<std::remove_reference_t<decltype((c.beta_switch))>>{c.beta_switch});
}

/// Encoded size of each of the last two fields (a tag byte + 8 bytes).
inline constexpr std::size_t kConfigTailFieldBytes = 9;

/// Writes the config's fields into the open section of `w`; `beta_blind`
/// leaves out the last one (beta_switch.beta).
void write_config(snapshot::Writer& w, const ExperimentConfig& c,
                  bool beta_blind = false);

/// Reads what write_config wrote, into a config with default runtime
/// attachments. Throws std::logic_error naming the field on a value the run
/// cannot honour: an unknown enumerator, a negative or non-finite quantity,
/// duration <= 0, or a switch outside the run or with β <= 0.
ExperimentConfig read_config(snapshot::SectionReader& s);

/// write_config's bytes on their own.
std::string encode_config(const ExperimentConfig& c, bool beta_blind = false);

/// The first field of `c` whose encoding departs from `encoding` (an
/// encode_config output), or nullptr if `encoding` starts with all of c's.
const char* first_differing_field(const ExperimentConfig& c, std::string_view encoding,
                                  bool beta_blind = false);

/// All metrics of one run (or the mean over several runs; counts become
/// fractional after averaging). A new scalar is a member here, a line in
/// SIMTY_RUN_RESULT_SCALARS and its assignment in Run::finalize.
struct RunResult {
  std::string policy_name;
  Duration duration = Duration::zero();
  int runs = 1;

  // Energy (Fig 3).
  power::EnergyBreakdown energy;
  double average_power_mw = 0.0;
  double projected_standby_hours = 0.0;  // full Nexus 5 pack at avg power

  // Delay (Fig 4).
  double delay_perceptible = 0.0;
  double delay_imperceptible = 0.0;
  double delay_imperceptible_p95 = 0.0;  // tail of the delay distribution

  // Wakeups (Table 4): CPU, Speaker&Vibrator, Wi-Fi, WPS, Accelerometer.
  struct HwCounts {
    std::string hardware;
    double actual = 0.0;
    double expected = 0.0;
  };
  std::vector<HwCounts> wakeups;

  // Volume stats.
  double deliveries = 0.0;
  double batches_delivered = 0.0;
  double one_shots = 0.0;
  double awake_seconds = 0.0;
  double asleep_seconds = 0.0;

  // Guarantee audit (§3.2.2).
  double worst_gap_ratio = 0.0;
  std::uint64_t gap_violations = 0;
  std::uint64_t perceptible_window_misses = 0;  // beyond window + wake latency

  // Downlink paging scenario (zero unless ExperimentConfig::drx is set).
  double pages_answered = 0.0;
  double page_delay_avg_s = 0.0;        // arrival -> answer, mean
  double page_delay_p95_s = 0.0;
  double drx_listen_seconds = 0.0;      // main-radio paging on-durations
  double wur_listen_seconds = 0.0;      // wake-up receiver listen time
  double wur_triggers = 0.0;
};

/// How average_results folds a scalar over the seeds: the mean (summed in
/// seed order), the worst case, or the total (event counts).
enum class Fold { kMean, kMax, kSum };

/// The scalar members of RunResult, one line each: X(member, fold). The
/// structured members (policy_name, duration, runs, energy, wakeups) are
/// handled by hand.
#define SIMTY_RUN_RESULT_SCALARS(X)  \
  X(average_power_mw, kMean)         \
  X(projected_standby_hours, kMean)  \
  X(delay_perceptible, kMean)        \
  X(delay_imperceptible, kMean)      \
  X(delay_imperceptible_p95, kMean)  \
  X(deliveries, kMean)               \
  X(batches_delivered, kMean)        \
  X(one_shots, kMean)                \
  X(awake_seconds, kMean)            \
  X(asleep_seconds, kMean)           \
  X(worst_gap_ratio, kMax)           \
  X(gap_violations, kSum)            \
  X(perceptible_window_misses, kSum) \
  X(pages_answered, kMean)           \
  X(page_delay_avg_s, kMean)         \
  X(page_delay_p95_s, kMean)         \
  X(drx_listen_seconds, kMean)       \
  X(wur_listen_seconds, kMean)       \
  X(wur_triggers, kMean)

/// Calls f(name, fold, member pointer) per scalar, in list order. The
/// member type is double or std::uint64_t, so `f` is a generic lambda.
template <typename F>
void for_each_scalar(F&& f) {
#define SIMTY_VISIT_SCALAR(member, fold) f(#member, Fold::fold, &RunResult::member);
  SIMTY_RUN_RESULT_SCALARS(SIMTY_VISIT_SCALAR)
#undef SIMTY_VISIT_SCALAR
}

/// The CPU row of the Table 4 wakeup breakdown (zero counts when absent).
RunResult::HwCounts cpu_wakeups(const RunResult& r);

/// The alignment policy `config.policy` names, set up from its fields, in
/// the config's arena when it carries one.
common::ArenaPtr<alarm::AlignmentPolicy> make_policy(const ExperimentConfig& config);

/// Runs one seeded experiment; a moved-in config is not copied again.
RunResult run_experiment(ExperimentConfig config);

/// Runs every config and returns the results in the order given, fanned
/// out over `jobs` threads with common::parallel_map (whose doc comment
/// holds the ordering and first-failure contract; `jobs` <= 1 is the
/// serial path). Each executing thread backs its runs with one
/// thread_local arena, reset per run; a config carrying its own arena
/// forces the whole sweep onto the serial path.
std::vector<RunResult> run_sweep(const std::vector<ExperimentConfig>& configs,
                                 int jobs = 1);

/// Worker count for `--jobs auto` and the benches: $SIMTY_JOBS when it is
/// an integer in [1, INT_MAX], else std::thread::hardware_concurrency
/// (at least 1).
int default_jobs();

/// Runs `repetitions` experiments with seeds seed, seed+1, ... and returns
/// the component-wise mean: run_repeated_stats(...).mean. `jobs > 1` fans
/// the seeds out through run_sweep; results are reduced in seed order, so
/// the mean is byte-identical to the serial path. A config carrying an
/// extra_power_listener always runs serially.
RunResult run_repeated(ExperimentConfig config, int repetitions, int jobs = 1);

/// Component-wise mean of per-seed results (exposed for tests).
RunResult average_results(const std::vector<RunResult>& results);

/// Mean plus across-seed spread of the key metrics (for EXPERIMENTS.md's
/// "how stable is this number" question).
struct RepeatedStats {
  RunResult mean;
  OnlineStats total_j;
  OnlineStats awake_j;
  OnlineStats delay_imperceptible;
  OnlineStats cpu_wakeups;
  OnlineStats standby_hours;
};

/// Same parallelism and determinism contract as run_repeated.
RepeatedStats run_repeated_stats(ExperimentConfig config, int repetitions,
                                 int jobs = 1);

}  // namespace simty::exp
