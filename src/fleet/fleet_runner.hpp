#pragma once
// Fleet runner: shards a device population over common::parallel_map and
// reduces per-shard aggregates deterministically.
//
// Contract: run_fleet at any jobs count produces aggregates bit-identical
// to the serial path. Three ingredients:
//   1. sample_device is counter-keyed — device i's sample and run seed
//      never depend on fleet size, shard partition or worker count;
//   2. the shard partition is a fixed device-major slicing by
//      shard_devices, deliberately NOT derived from jobs (a jobs-derived
//      partition would change Welford merge order and thus float rounding);
//   3. parallel_map returns the shard aggregates in shard order (its doc
//      comment holds the ordering and first-failure contract), and they
//      fold through the merge_pairwise tree, whose shape depends only on
//      the shard count.
// Each shard owns its aggregate state (arena-friendly: one CohortAggregate
// per shard, no sharing), so the only cross-thread coupling is the final
// reduction on the calling thread.

#include <cstdint>
#include <string>
#include <vector>

#include "alarm/similarity.hpp"
#include "exp/experiment.hpp"
#include "fleet/aggregate.hpp"
#include "fleet/cohort.hpp"

namespace simty::trace {
class Tracer;
}

namespace simty::fleet {

/// One fleet run: a population, a policy, a seed.
struct FleetConfig {
  /// Cohorts making up the population; empty selects default_cohorts().
  std::vector<CohortSpec> cohorts;

  /// Total devices, apportioned over the cohorts by weight.
  std::uint64_t devices = 10000;

  exp::PolicyKind policy = exp::PolicyKind::kSimty;
  alarm::SimilarityConfig similarity;  // for the SIMTY variants

  std::uint64_t seed = 1;

  /// Worker count; <= 1 runs inline on the calling thread.
  int jobs = 1;

  /// Devices per shard. Part of the determinism contract: fixed, never
  /// derived from `jobs` (see the file comment). Changing it legitimately
  /// changes the float rounding of the aggregates.
  std::uint64_t shard_devices = 256;

  /// Optional run tracer; fleet-level spans are recorded on the calling
  /// thread only (device runs stay untraced, serial and parallel alike).
  trace::Tracer* tracer = nullptr;
};

/// Aggregated outcome of one fleet run.
struct FleetResult {
  std::string policy_name;
  std::uint64_t devices = 0;
  std::vector<CohortAggregate> cohorts;  // one per configured cohort, in order
  CohortAggregate overall{"ALL"};        // merge of all cohorts
};

/// Experiment config for one sampled device (exposed so tests can recompute
/// fleet aggregates device-by-device through the public API). The sample's
/// catalog moves into the config.
exp::ExperimentConfig device_config(const CohortSpec& spec, DeviceSample sample,
                                    exp::PolicyKind policy,
                                    const alarm::SimilarityConfig& similarity);

/// Runs the fleet. If any device run throws, the exception of the first
/// failing shard in shard order is rethrown (parallel_map's contract).
FleetResult run_fleet(const FleetConfig& config);

}  // namespace simty::fleet
