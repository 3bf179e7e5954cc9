#include "exp/experiment.hpp"

#include <algorithm>
#include <cctype>
#include <type_traits>

#include "common/check.hpp"
#include "exp/parallel_runner.hpp"

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

// Caller-supplied hooks (delivery/session observers, power listeners) are
// owned by the caller and invoked from whichever run carries them; they are
// not required to be thread-safe, so their presence forces the serial path.
bool has_external_hooks(const ExperimentConfig& c) {
  return c.extra_power_listener != nullptr ||
         static_cast<bool>(c.extra_delivery_observer) ||
         static_cast<bool>(c.extra_session_observer);
}

}  // namespace

RunResult run_repeated(ExperimentConfig config, int repetitions, int jobs) {
  SIMTY_CHECK(repetitions > 0);
  if (has_external_hooks(config)) jobs = 1;
  return average_results(run_sweep(seeded_configs(config, repetitions), jobs));
}

RepeatedStats run_repeated_stats(ExperimentConfig config, int repetitions,
                                 int jobs) {
  SIMTY_CHECK(repetitions > 0);
  if (has_external_hooks(config)) jobs = 1;
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
