#include "exp/experiment.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <thread>
#include <type_traits>
#include <utility>

#include "alarm/duration_policy.hpp"
#include "alarm/exact_policy.hpp"
#include "alarm/fixed_interval_policy.hpp"
#include "alarm/native_policy.hpp"
#include "alarm/simty_policy.hpp"
#include "common/check.hpp"
#include "common/parallel_map.hpp"
#include "common/strings.hpp"
#include "snapshot/snapshot.hpp"

namespace simty::exp {

const char* to_string(PolicyKind p) {
  switch (p) {
    case PolicyKind::kNative: return "NATIVE";
    case PolicyKind::kSimty: return "SIMTY";
    case PolicyKind::kExact: return "EXACT";
    case PolicyKind::kSimtyDuration: return "SIMTY-DUR";
    case PolicyKind::kFixedInterval: return "FIXED";
  }
  return "?";
}

const char* to_string(WorkloadKind w) {
  switch (w) {
    case WorkloadKind::kLight: return "light";
    case WorkloadKind::kHeavy: return "heavy";
    case WorkloadKind::kSynthetic: return "synthetic";
  }
  return "?";
}

common::ArenaPtr<alarm::AlignmentPolicy> make_policy(const ExperimentConfig& config) {
  common::Arena* arena = config.arena_opts.arena;
  switch (config.policy) {
    case PolicyKind::kNative: return common::make_arena_ptr<alarm::NativePolicy>(arena);
    case PolicyKind::kSimty:
      return common::make_arena_ptr<alarm::SimtyPolicy>(arena, config.similarity);
    case PolicyKind::kExact: return common::make_arena_ptr<alarm::ExactPolicy>(arena);
    case PolicyKind::kSimtyDuration:
      return common::make_arena_ptr<alarm::DurationSimtyPolicy>(arena, config.similarity);
    case PolicyKind::kFixedInterval:
      return common::make_arena_ptr<alarm::FixedIntervalPolicy>(arena,
                                                                config.fixed_interval);
  }
  SIMTY_CHECK_MSG(false, "unknown policy kind");
  return nullptr;
}

namespace {

// The kind in [0, last] whose to_string, lowercased, is `name`.
template <typename Kind>
std::optional<Kind> parse_lowercase(std::string_view name, Kind last) {
  for (int i = 0; i <= static_cast<int>(last); ++i) {
    std::string label = to_string(static_cast<Kind>(i));
    for (char& c : label) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (label == name) return static_cast<Kind>(i);
  }
  return std::nullopt;
}

}  // namespace

std::optional<PolicyKind> parse_policy(std::string_view name) {
  return parse_lowercase(name, PolicyKind::kFixedInterval);
}

std::optional<WorkloadKind> parse_workload(std::string_view name) {
  return parse_lowercase(name, WorkloadKind::kSynthetic);
}

namespace {

// Field lists of the records inside ExperimentConfig, in wire order.
template <typename T, typename F>
void for_each_field(T& v, F&& f) {
  using S = std::remove_const_t<T>;
  if constexpr (std::is_same_v<S, alarm::SimilarityConfig>) {
    f("hw_mode", v.hw_mode);
    f("time_mode", v.time_mode);
    f("energy_hungry", v.energy_hungry);
  } else if constexpr (std::is_same_v<S, apps::AppProfile>) {
    f("name", v.name);
    f("repeat", v.repeat);
    f("alpha", v.alpha);
    f("mode", v.mode);
    f("hardware", v.hardware);
    f("base_hold", v.base_hold);
    f("hold_jitter", v.hold_jitter);
    f("in_light", v.in_light);
    f("irregular", v.irregular);
    f("payload_bytes", v.payload_bytes);
    f("retry_probability", v.retry_probability);
    f("retry_backoff", v.retry_backoff);
  } else if constexpr (std::is_same_v<S, ExperimentConfig::BetaSwitch>) {
    f("at", v.at);  // the switch's β is a config field of its own
  } else if constexpr (std::is_same_v<S, net::DrxConfig>) {
    f("paging_cycle", v.paging_cycle);
    f("on_duration", v.on_duration);
    f("listen", v.listen);
    f("mean_page_gap", v.mean_page_gap);
    f("page_hold", v.page_hold);
    f("wur", v.wur);
    f("wur_delay_budget", v.wur_delay_budget);
  } else if constexpr (std::is_same_v<S, hw::WurConfig>) {
    f("listen", v.listen);
    f("wake_trigger", v.wake_trigger);
    f("wake_latency", v.wake_latency);
  } else if constexpr (std::is_same_v<S, hw::PowerModel>) {
    f("sleep", v.sleep);
    f("waking", v.waking);
    f("awake_base", v.awake_base);
    f("wake_transition", v.wake_transition);
    f("wake_latency", v.wake_latency);
    f("idle_linger", v.idle_linger);
    f("handler_floor", v.handler_floor);
    f("components", v.components);
  } else {
    static_assert(std::is_same_v<S, hw::ComponentPower>, "config type without a codec");
    f("activation", v.activation);
    f("active", v.active);
    f("serial_fraction", v.serial_fraction);
    f("tail", v.tail);
    f("tail_power", v.tail_power);
  }
}

using OptionalSwitch = std::optional<ExperimentConfig::BetaSwitch>;

/// Writes the fields it visits: the shared state-field codec, plus the
/// config-only types, with records walked through for_each_field.
struct ConfigWriter : snapshot::FieldWriterBase<ConfigWriter> {
  bool beta_blind = false;

  explicit ConfigWriter(snapshot::Writer& w, bool blind = false)
      : FieldWriterBase(w), beta_blind(blind) {}

  using FieldWriterBase::operator();
  void operator()(const char*, hw::ComponentSet v) const { w_.u32(v.bits()); }
  void operator()(const char*, SwitchBeta<const OptionalSwitch> v) const {
    if (!beta_blind) w_.f64(v.beta_switch ? v.beta_switch->beta : 0.0);
  }
  template <typename T>
  void record(const T& v) const {
    for_each_field(v, *this);
  }
};

/// Reads the fields it visits: the shared state-field codec, with every
/// value validated and records walked through for_each_field.
struct ConfigReader : snapshot::FieldReaderBase<ConfigReader> {
  const char* field = "";  // the top-level field being read

  using FieldReaderBase::FieldReaderBase;
  using FieldReaderBase::operator();

  // Throws naming the field, and `leaf` when it is nested, unless `ok`.
  void require(bool ok, const char* leaf, const char* what) const {
    SIMTY_CHECK_MSG(ok, std::string("config field '") + field +
                            (leaf == field ? "" : std::string(".") + leaf) +
                            "': " + what);
  }
  double quantity(const char* name) const {
    const double v = s_.f64();
    require(std::isfinite(v) && v >= 0.0, name, "must be finite and >= 0");
    return v;
  }

  void operator()(const char* name, bool& v) const {
    const std::uint8_t raw = s_.u8();
    require(raw <= 1, name, "must be 0 or 1");
    v = raw == 1;
  }
  void operator()(const char* name, double& v) const { v = quantity(name); }
  void operator()(const char* name, Duration& v) const {
    v = Duration::micros(s_.i64());
    require(!v.is_negative(), name, "must be >= 0");
  }
  void operator()(const char* name, Power& v) const {
    v = Power::milliwatts(quantity(name));
  }
  void operator()(const char* name, Energy& v) const {
    v = Energy::millijoules(quantity(name));
  }
  void operator()(const char* name, hw::ComponentSet& v) const {
    const std::uint32_t bits = s_.u32();
    require(bits < (1u << hw::kComponentCount), name, "unknown component");
    v = hw::ComponentSet::from_bits(bits);
  }
  void operator()(const char* name, SwitchBeta<OptionalSwitch> v) const {
    const double beta = s_.f64();
    require(v.beta_switch ? std::isfinite(beta) && beta > 0.0 : beta == 0.0, name,
            "must be finite and > 0 with a switch, 0 without");
    if (v.beta_switch) v.beta_switch->beta = beta;
  }
  template <typename T>
  void operator()(const char* name, T& v) const {
    if constexpr (std::is_enum_v<T>) {
      v = static_cast<T>(s_.u8());
      // Each enum's to_string names every enumerator and gives "?" otherwise.
      require(std::string_view(to_string(v)) != "?", name, "unknown enumerator");
    } else {
      FieldReaderBase::operator()(name, v);
    }
  }
  template <typename T>
  void record(T& v) const {
    for_each_field(v, *this);
  }
};

}  // namespace

void write_config(snapshot::Writer& w, const ExperimentConfig& c, bool beta_blind) {
  for_each_config_field(c, ConfigWriter{w, beta_blind});
}

ExperimentConfig read_config(snapshot::SectionReader& s) {
  ExperimentConfig c;
  ConfigReader r(s);
  for_each_config_field(c, [&r](const char* name, auto&& member) {
    r.field = name;
    r(name, member);
  });
  r.field = "duration";
  r.require(c.duration > Duration::zero(), r.field, "must be > 0");
  r.field = "beta_switch";
  r.require(!c.beta_switch || c.beta_switch->at <= c.duration, "at", "outside the run");
  return c;
}

std::string encode_config(const ExperimentConfig& c, bool beta_blind) {
  snapshot::Writer w;
  w.begin_section("config", 0);
  write_config(w, c, beta_blind);
  return std::string(w.payload());
}

const char* first_differing_field(const ExperimentConfig& c, std::string_view encoding,
                                  bool beta_blind) {
  // Fields are self-delimiting: the first one whose running encoding stops
  // being a prefix of `encoding` is the one that differs.
  snapshot::Writer w;
  w.begin_section("config", 0);
  const char* differing = nullptr;
  for_each_config_field(c, [&](const char* name, const auto& member) {
    ConfigWriter{w, beta_blind}(name, member);
    if (differing == nullptr && !encoding.starts_with(w.payload())) differing = name;
  });
  return differing;
}

RunResult::HwCounts cpu_wakeups(const RunResult& r) {
  for (const RunResult::HwCounts& w : r.wakeups) {
    if (w.hardware == "CPU") return w;
  }
  return {"CPU", 0.0, 0.0};
}

// run_experiment lives in exp/run.cpp: it is now a thin wrapper over the
// resumable exp::Run harness, which owns the stack-assembly order.

RunResult average_results(const std::vector<RunResult>& results) {
  SIMTY_CHECK(!results.empty());
  RunResult mean = results.front();
  const auto n = static_cast<double>(results.size());
  if (results.size() == 1) return mean;

  using power::EnergyBreakdown;
  for (Energy EnergyBreakdown::*part :
       {&EnergyBreakdown::sleep, &EnergyBreakdown::waking, &EnergyBreakdown::awake_base,
        &EnergyBreakdown::wake_transitions, &EnergyBreakdown::component_active,
        &EnergyBreakdown::component_activation}) {
    Energy sum = Energy::zero();
    for (const RunResult& r : results) sum += r.energy.*part;
    mean.energy.*part = sum / n;
  }
  for (std::size_t i = 0; i < mean.energy.per_component.size(); ++i) {
    Energy sum = Energy::zero();
    for (const RunResult& r : results) sum += r.energy.per_component[i];
    mean.energy.per_component[i] = sum / n;
  }
  for (std::size_t i = 0; i < mean.wakeups.size(); ++i) {
    double actual = 0.0, expected = 0.0;
    for (const RunResult& r : results) {
      SIMTY_CHECK(r.wakeups.size() == mean.wakeups.size());
      actual += r.wakeups[i].actual;
      expected += r.wakeups[i].expected;
    }
    mean.wakeups[i].actual = actual / n;
    mean.wakeups[i].expected = expected / n;
  }
  // Each fold accumulates in seed order, so the mean is bit-identical to a
  // serial pass whatever produced the per-seed results.
  for_each_scalar([&](const char*, Fold fold, auto member) {
    using T = std::remove_reference_t<decltype(mean.*member)>;
    T acc{};
    for (const RunResult& r : results) {
      acc = fold == Fold::kMax ? std::max(acc, r.*member) : acc + r.*member;
    }
    if constexpr (std::is_floating_point_v<T>) {
      if (fold == Fold::kMean) acc = acc / n;
    } else {
      SIMTY_CHECK_MSG(fold != Fold::kMean, "integer metrics fold by sum or max");
    }
    mean.*member = acc;
  });
  mean.runs = static_cast<int>(results.size());
  return mean;
}

std::vector<RunResult> run_sweep(const std::vector<ExperimentConfig>& configs,
                                 int jobs) {
  // A caller-supplied arena is single-threaded state shared by every run
  // that carries it: those sweeps must not fan out.
  if (std::any_of(configs.begin(), configs.end(), [](const ExperimentConfig& c) {
        return c.arena_opts.arena != nullptr;
      })) {
    jobs = 1;
  }
  return common::parallel_map(configs.size(), jobs, [&configs](std::size_t i) {
    ExperimentConfig config = configs[i];
    if (config.arena_opts.arena == nullptr) {
      // Reset-then-run on the executing thread's arena: run i + 1 reuses
      // the blocks run i grew, so a sweep's steady state allocates nothing
      // per run. Arena presence never changes a result bit.
      thread_local common::Arena arena;
      arena.reset();
      config.arena_opts.arena = &arena;
    }
    return run_experiment(std::move(config));
  });
}

int default_jobs() {
  // Worker count only changes scheduling, never results (run_sweep).
  if (const char* env = std::getenv("SIMTY_JOBS")) {  // simty-analyze: allow(taint)
    if (const auto v = parse_int(env, 1, INT_MAX)) return static_cast<int>(*v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace {

std::vector<ExperimentConfig> seeded_configs(const ExperimentConfig& config,
                                             int repetitions) {
  std::vector<ExperimentConfig> configs(static_cast<std::size_t>(repetitions),
                                        config);
  for (int i = 0; i < repetitions; ++i) {
    configs[static_cast<std::size_t>(i)].seed =
        config.seed + static_cast<std::uint64_t>(i);
    // One tracer records one run: keep it on the base seed only, so the
    // capture is identical whether the sweep runs serially or in parallel.
    if (i > 0) configs[static_cast<std::size_t>(i)].tracer = nullptr;
  }
  return configs;
}

}  // namespace

RunResult run_repeated(ExperimentConfig config, int repetitions, int jobs) {
  return run_repeated_stats(std::move(config), repetitions, jobs).mean;
}

RepeatedStats run_repeated_stats(ExperimentConfig config, int repetitions,
                                 int jobs) {
  SIMTY_CHECK(repetitions > 0);
  // A caller-owned power listener need not be thread-safe.
  if (config.extra_power_listener != nullptr) jobs = 1;
  const std::vector<RunResult> results =
      run_sweep(seeded_configs(config, repetitions), jobs);
  RepeatedStats out;
  for (const RunResult& r : results) {
    out.total_j.add(r.energy.total().joules_f());
    out.awake_j.add(r.energy.awake_total().joules_f());
    out.delay_imperceptible.add(r.delay_imperceptible);
    out.standby_hours.add(r.projected_standby_hours);
    out.cpu_wakeups.add(cpu_wakeups(r).actual);
  }
  out.mean = average_results(results);
  return out;
}

}  // namespace simty::exp
