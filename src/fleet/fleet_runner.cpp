#include "fleet/fleet_runner.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "common/arena.hpp"
#include "common/check.hpp"
#include "common/parallel_map.hpp"
#include "exp/config_codec.hpp"
#include "snapshot/codec.hpp"
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
  std::size_t index = 0;  // ordinal in shard order (checkpoint file name)
  std::size_t cohort = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

constexpr std::uint32_t kShardCkptVersion = 2;

// for_each_fleet_field as a value, for the shared codec templates.
constexpr auto kFleetFields = [](const FleetConfig& c, auto&& f) {
  for_each_fleet_field(c, f);
};

std::string shard_ckpt_path(const FleetConfig& config, const Shard& shard) {
  return config.checkpoint_dir + "/shard_" + std::to_string(shard.index) +
         ".ckpt";
}

/// Writes the shard's resumable state: the fleet's encoding and the shard
/// index (together they fix the cohort and device range), the next device
/// to run, and the exact aggregate so far. Atomic rename keeps a kill
/// mid-write from leaving a torn checkpoint behind.
void write_shard_ckpt(const std::string& path, const FleetConfig& config,
                      const Shard& shard, std::uint64_t next_device,
                      const CohortAggregate& agg) {
  snapshot::Writer w;
  w.begin_section("fleet-shard", kShardCkptVersion);
  w.bytes(exp::encode_fields(config, kFleetFields));
  w.u64(shard.index);
  w.u64(next_device);
  snapshot::write_fields(w, agg);
  w.end_section();
  snapshot::write_file_atomic(path, w.finish());
}

/// Loads a checkpoint and verifies it belongs to this shard of this fleet
/// (a directory reused under another config must fail loudly, naming the
/// field, not silently skew aggregates). Returns the device index to
/// resume at.
std::uint64_t read_shard_ckpt(const std::string& path, const FleetConfig& config,
                              const Shard& shard, CohortAggregate& agg) {
  const snapshot::Reader reader(snapshot::read_file(path));
  std::uint64_t next_device = 0;
  reader.read_section("fleet-shard", kShardCkptVersion, [&](snapshot::SectionReader& s) {
    const std::string stored = s.bytes();
    if (stored != exp::encode_fields(config, kFleetFields)) {
      const char* field = exp::first_differing(config, stored, kFleetFields);
      SIMTY_CHECK_MSG(false, std::string("shard checkpoint: written under another fleet "
                                         "config (field '") +
                                 (field != nullptr ? field : "?") + "' differs)");
    }
    SIMTY_CHECK_MSG(s.u64() == shard.index, "shard checkpoint: index mismatch");
    next_device = s.u64();
    SIMTY_CHECK_MSG(next_device >= shard.begin && next_device <= shard.end,
                    "shard checkpoint: resume point outside shard");
    snapshot::read_fields(s, agg);
  });
  SIMTY_CHECK_MSG(agg.devices == next_device - shard.begin,
                  "shard checkpoint: aggregate count disagrees with cursor");
  return next_device;
}

// `config` has its cohorts resolved.
CohortAggregate run_shard(const FleetConfig& config, const Shard& shard) {
  const CohortSpec& spec = config.cohorts[shard.cohort];
  CohortAggregate agg(spec.name);
  std::uint64_t resume_at = shard.begin;
  const bool checkpointing = !config.checkpoint_dir.empty();
  const std::string ckpt_path =
      checkpointing ? shard_ckpt_path(config, shard) : std::string();
  if (checkpointing && std::filesystem::exists(ckpt_path)) {
    resume_at = read_shard_ckpt(ckpt_path, config, shard, agg);
  }
  // One arena per executing thread, reset before every device: each device
  // run carves its per-run state from it (event-queue slabs, the policy,
  // alarms and the registry, batches and queues, the batch index, apps and
  // traces, observer lists, the interval audit), and the reset rewinds the
  // same blocks for the next device and the next shard. What still reaches
  // the heap per device — the sampled catalog, the delay histogram, long
  // alarm tags and the result — is budgeted by the alloc gate's fleet-shard
  // case. Arena presence never changes a result bit.
  thread_local common::Arena arena;
  std::uint64_t processed = 0;  // devices run in THIS invocation
  for (std::uint64_t d = resume_at; d < shard.end; ++d) {
    if (config.fault_shard == static_cast<std::int64_t>(shard.index) &&
        processed == config.fault_after_devices) {
      throw std::runtime_error("fleet: injected fault in shard " +
                               std::to_string(shard.index));
    }
    arena.reset();
    exp::ExperimentConfig device_cfg =
        device_config(spec, sample_device(spec, config.seed, d), config.policy,
                      config.similarity);
    device_cfg.arena_opts.arena = &arena;
    agg.add(device_metrics(exp::run_experiment(std::move(device_cfg))));
    ++processed;
    if (checkpointing && config.checkpoint_every > 0 &&
        processed % config.checkpoint_every == 0) {
      write_shard_ckpt(ckpt_path, config, shard, d + 1, agg);
    }
  }
  // Final checkpoint (cursor == end): a restart after this shard finished
  // restores the complete aggregate instead of recomputing the shard.
  if (checkpointing) write_shard_ckpt(ckpt_path, config, shard, shard.end, agg);
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
      shards.push_back(Shard{shards.size(), i, b,
                             std::min(b + config.shard_devices, counts[i])});
    }
  }
  if (!config.checkpoint_dir.empty()) {
    std::filesystem::create_directories(config.checkpoint_dir);
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
