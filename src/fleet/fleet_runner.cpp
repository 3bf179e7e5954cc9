#include "fleet/fleet_runner.hpp"

#include <algorithm>

#include "common/arena.hpp"
#include "common/check.hpp"
#include "common/parallel_map.hpp"
#include "trace/tracer.hpp"

namespace simty::fleet {

exp::ExperimentConfig device_config(const CohortSpec& spec, DeviceSample sample,
                                    exp::PolicyKind policy,
                                    const alarm::SimilarityConfig& similarity) {
  exp::ExperimentConfig c;
  c.policy = policy;
  c.similarity = similarity;
  c.custom_profiles = std::move(sample.catalog);
  c.beta = sample.beta;
  c.duration = spec.standby;
  c.seed = sample.run_seed;
  c.system_alarms = spec.system_alarms;
  c.power_model = sample.power_model;
  return c;
}

namespace {

/// A contiguous device-major slice of one cohort.
struct Shard {
  std::size_t cohort = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

// `config` has its cohorts resolved.
CohortAggregate run_shard(const FleetConfig& config, const Shard& shard) {
  const CohortSpec& spec = config.cohorts[shard.cohort];
  CohortAggregate agg(spec.name);
  // One arena per executing thread, reset before every device: each device
  // run carves its per-run state from it (event-queue slabs, the policy,
  // alarms and the registry, batches and queues, apps and their traces,
  // observer lists, the interval audit), and the reset rewinds the
  // same blocks for the next device and the next shard. What still reaches
  // the heap per device — the sampled catalog, the delay histogram, long
  // alarm tags and the result — is budgeted by the alloc gate's fleet-shard
  // case. Arena presence never changes a result bit.
  thread_local common::Arena arena;
  for (std::uint64_t d = shard.begin; d < shard.end; ++d) {
    arena.reset();
    exp::ExperimentConfig device_cfg =
        device_config(spec, sample_device(spec, config.seed, d), config.policy,
                      config.similarity);
    device_cfg.arena_opts.arena = &arena;
    agg.add(device_metrics(exp::run_experiment(std::move(device_cfg))));
  }
  return agg;
}

}  // namespace

FleetResult run_fleet(const FleetConfig& fleet) {
  SIMTY_CHECK_MSG(fleet.devices > 0, "fleet needs at least one device");
  SIMTY_CHECK_MSG(fleet.shard_devices > 0, "fleet shard size must be positive");
  FleetConfig config = fleet;
  if (config.cohorts.empty()) config.cohorts = default_cohorts();
  const std::vector<CohortSpec>& cohorts = config.cohorts;
  for (const CohortSpec& spec : cohorts) spec.validate();
  const std::vector<std::uint64_t> counts =
      apportion_devices(config.devices, cohorts);

  std::vector<Shard> shards;
  for (std::size_t i = 0; i < cohorts.size(); ++i) {
    for (std::uint64_t b = 0; b < counts[i]; b += config.shard_devices) {
      shards.push_back(Shard{i, b, std::min(b + config.shard_devices, counts[i])});
    }
  }

  // Fleet-level spans only, on the calling thread: device runs install a
  // null tracer (device_config leaves tracer unset), so the fleet trace is
  // identical whether the shards ran serially or on workers.
  const trace::TraceScope trace_scope(config.tracer);
  SIMTY_TRACE_SPAN_BEGIN(TimePoint::origin(), trace::TraceCategory::kExp,
                         "fleet", static_cast<std::int64_t>(config.devices));

  std::vector<CohortAggregate> shard_aggs =
      common::parallel_map(shards.size(), config.jobs, [&](std::size_t i) {
        return run_shard(config, shards[i]);
      });

  FleetResult result;
  result.policy_name = exp::to_string(config.policy);
  result.devices = config.devices;
  // Shards were emitted cohort-major, so each cohort's shards are one
  // contiguous slice of shard_aggs.
  std::size_t pos = 0;
  for (std::size_t i = 0; i < cohorts.size(); ++i) {
    std::vector<CohortAggregate> mine;
    while (pos < shards.size() && shards[pos].cohort == i) {
      mine.push_back(std::move(shard_aggs[pos]));
      ++pos;
    }
    if (mine.empty()) mine.emplace_back(cohorts[i].name);  // zero-device cohort
    SIMTY_TRACE_INSTANT(TimePoint::origin(), trace::TraceCategory::kExp,
                        "fleet-cohort-merge",
                        static_cast<std::int64_t>(mine.size()));
    result.cohorts.push_back(merge_pairwise(std::move(mine)));
  }
  std::vector<CohortAggregate> all(result.cohorts);
  result.overall = merge_pairwise(std::move(all));
  result.overall.cohort = "ALL";
  SIMTY_TRACE_SPAN_END(TimePoint::origin(), trace::TraceCategory::kExp, "fleet",
                       static_cast<std::int64_t>(config.devices));
  return result;
}

}  // namespace simty::fleet
