#pragma once
// Cohort-based device population sampling.
//
// The paper evaluates one 18-app Nexus 5; the fleet layer scales that to
// heterogeneous populations. A CohortSpec describes a *distribution* of
// devices (catalog-subset sizes, ReIn/alpha perturbation widths, hardware
// mix, network quality); sample_device() draws device i's concrete
// DeviceSample from it. Sampling is counter-keyed — device i owns the PCG32
// stream Rng(seed ^ hash(cohort name), i) — so a device's sample is a pure
// function of (spec, fleet seed, index), independent of fleet size, shard
// partition and --jobs. That purity is the first half of the fleet
// determinism contract; the other half is the aggregation merge tree
// (fleet/aggregate.hpp).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "apps/app.hpp"
#include "common/time.hpp"
#include "hw/power_model.hpp"

namespace simty::fleet {

/// Upper bound of the per-device scale factors (power_scale_hi,
/// degraded_hold_factor_max): a hundredfold is far past any real device,
/// and keeps every scaled power finite and every scaled hold within int64
/// microseconds.
inline constexpr double kMaxCohortFactor = 100.0;

/// Largest sampled alpha: a repeating alarm's window must stay shorter than
/// its ReIn, and this keeps it at least 1 us short for any ReIn >= 1 s.
inline constexpr double kMaxSampledAlpha = 1.0 - 1e-6;

/// Distribution of devices sharing a usage/hardware/network profile.
struct CohortSpec {
  std::string name = "default";

  /// Relative share of the fleet (apportioned largest-remainder; see
  /// apportion_devices).
  double weight = 1.0;

  /// Per-device catalog size, drawn uniformly from [min_apps, max_apps];
  /// the apps themselves are a uniform subset of the Table 3 catalog.
  std::size_t min_apps = 4;
  std::size_t max_apps = 10;

  /// Each selected app's ReIn is scaled by U[1 - rein_jitter, 1 + rein_jitter]
  /// (clamped to >= 1 s); its alpha by U[1 - alpha_jitter, 1 + alpha_jitter]
  /// (clamped to [0, kMaxSampledAlpha]). Both must lie in [0, 1).
  double rein_jitter = 0.2;
  double alpha_jitter = 0.1;

  /// Per-device platform grace factor, drawn from U[beta_lo, beta_hi).
  double beta_lo = 0.9;
  double beta_hi = 0.98;

  /// Fraction of devices on the wearable power profile (the rest are
  /// Nexus-5 class).
  double wearable_fraction = 0.0;

  /// Device-to-device power-profile spread: every rail of the chosen base
  /// profile is scaled by U[power_scale_lo, power_scale_hi).
  double power_scale_lo = 0.85;
  double power_scale_hi = 1.15;

  /// Fraction of devices on a degraded network; their syncs hold the radio
  /// U[1, degraded_hold_factor_max) times longer.
  double degraded_network_fraction = 0.0;
  double degraded_hold_factor_max = 2.5;

  /// Standby session length per device.
  Duration standby = Duration::minutes(10);

  /// Whether devices run the Android system-alarm mix.
  bool system_alarms = false;

  /// Throws std::logic_error (via SIMTY_CHECK) when a field is out of range.
  void validate() const;
};

/// One concrete device drawn from a cohort.
struct DeviceSample {
  std::uint64_t device_index = 0;  // index within the cohort
  std::uint64_t run_seed = 0;      // seed for the device's experiment run
  std::vector<apps::AppProfile> catalog;  // perturbed Table 3 subset
  hw::PowerModel power_model;
  bool wearable = false;
  double power_scale = 1.0;
  bool degraded_network = false;
  double hold_factor = 1.0;
  double beta = apps::kPaperBeta;
};

/// Draws device `device_index` of the cohort. Pure function of its
/// arguments — see the file comment for the determinism contract.
DeviceSample sample_device(const CohortSpec& spec, std::uint64_t fleet_seed,
                           std::uint64_t device_index);

/// Deterministic text rendering of a sample (%.17g floats, integer
/// microseconds); equal strings iff the samples are bit-identical. Used by
/// the sampler-determinism tests and debugging.
std::string describe(const DeviceSample& sample);

/// Scales every rail of `model` (powers and energy impulses; latencies and
/// durations are unchanged) by `factor`.
hw::PowerModel scale_power_model(hw::PowerModel model, double factor);

/// The built-in three-cohort fleet: mainstream phones (weight 2), wearables,
/// and phones on poor networks.
std::vector<CohortSpec> default_cohorts();

/// Parses the cohort-file format documented in EXPERIMENTS.md:
///
///   [cohort-name]
///   weight = 2
///   apps = 4 10
///   rein_jitter = 0.2
///   ...
///
/// Throws std::runtime_error with a line number on malformed input,
/// including a key repeated within one cohort section.
std::vector<CohortSpec> parse_cohorts(std::string_view text);

/// Reads and parses a cohort file; throws std::runtime_error on I/O or
/// parse failure.
std::vector<CohortSpec> load_cohort_file(const std::string& path);

/// Splits `total` devices over the cohorts proportionally to their weights,
/// deterministically: floor shares first, then the remainder one device at
/// a time by largest fractional part (ties broken by cohort order).
std::vector<std::uint64_t> apportion_devices(
    std::uint64_t total, const std::vector<CohortSpec>& cohorts);

}  // namespace simty::fleet
