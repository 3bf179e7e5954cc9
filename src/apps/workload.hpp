#pragma once
// Workload assembly: the paper's light/heavy scenarios plus a synthetic
// generator for scalability studies.
//
// Deployment mimics the experimental protocol of §4.1: apps are installed
// and launched sequentially after a factory reset, so their major alarms
// start phase-shifted; irregular apps are replaced by imitated apps
// replaying pre-recorded traces.

#include <memory>
#include <vector>

#include "alarm/alarm_manager.hpp"
#include "apps/app.hpp"
#include "apps/trace_replay.hpp"
#include "common/arena.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "snapshot/codec.hpp"

namespace simty::apps {

/// Workload-wide knobs.
struct WorkloadConfig {
  std::uint64_t seed = 1;

  /// Grace factor beta assigned to every alarm (§4.1 uses 0.96).
  double beta = kPaperBeta;

  /// Apps launch sequentially, one every `launch_gap` starting at
  /// `first_launch` — the "installed and launched the pre-selected apps"
  /// phase before standby begins.
  Duration first_launch = Duration::seconds(5);
  Duration launch_gap = Duration::seconds(7);

  /// Overrides every profile's retry probability when set (>= 0). The
  /// paper workloads keep retries off; the knob exists for composition
  /// studies of one-shot traffic.
  double retry_probability = -1.0;
};

/// A set of resident apps ready to deploy into a simulation. A non-null
/// `arena` given to a factory backs the apps, their recorded traces and the
/// launch list; it must outlive the workload.
class Workload {
 public:
  /// The paper's light workload: 11 Wi-Fi messengers + Alarm Clock.
  static Workload light(const WorkloadConfig& config, common::Arena* arena = nullptr);

  /// The paper's heavy workload: all 18 apps (5 of them imitated).
  static Workload heavy(const WorkloadConfig& config, common::Arena* arena = nullptr);

  /// Synthetic workload of `n` apps with randomized attributes drawn from
  /// Table-3-like ranges (for scalability sweeps).
  static Workload synthetic(std::size_t n, const WorkloadConfig& config,
                            common::Arena* arena = nullptr);

  /// Workload from caller-supplied profiles (custom scenarios); irregular
  /// profiles get trace-replay imitations exactly like the heavy workload.
  static Workload from_profiles(const std::vector<AppProfile>& profiles,
                                const WorkloadConfig& config,
                                common::Arena* arena = nullptr);

  Workload(Workload&&) = default;
  Workload& operator=(Workload&&) = default;

  /// Schedules the sequential app launches into `sim`. Call before running.
  /// When `link` is non-null it is attached to every app, so payload-
  /// carrying syncs follow the instantaneous link rate.
  void deploy(sim::Simulator& sim, alarm::AlarmManager& manager,
              const net::WifiLink* link = nullptr);

  const common::ArenaVector<common::ArenaPtr<ResidentApp>>& apps() const {
    return apps_;
  }
  const WorkloadConfig& config() const { return config_; }

  /// Resolves delivery handlers for this workload's alarms on restore:
  /// "<name>.major" and "<name>.retry.N" tags map back to the deployed
  /// app's handlers. Returns an empty handler for foreign tags.
  alarm::DeliveryHandler handler_for(alarm::AlarmManager& manager,
                                     alarm::AppId app, const std::string& tag);

  /// The snapshot carries per-app state and the pending launch events.
  /// restore() requires an identically constructed (same factory, config)
  /// and deploy()ed workload; launches that had not fired yet are rebound.
  void restore(snapshot::SectionReader& s, sim::Simulator& sim,
               alarm::AlarmManager& manager);

  /// State fields, in snapshot order.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("apps", snapshot::fixed(self.apps_));
    f("launch_events", snapshot::fixed(self.launch_events_));
  }

 private:
  Workload(WorkloadConfig config, common::Arena* arena);
  void add_profiles(const std::vector<AppProfile>& profiles, Rng& rng);

  WorkloadConfig config_;
  common::Arena* arena_;
  common::ArenaVector<common::ArenaPtr<ResidentApp>> apps_;
  common::ArenaVector<sim::EventId> launch_events_;  // one per app, filled by deploy()
};

}  // namespace simty::apps
