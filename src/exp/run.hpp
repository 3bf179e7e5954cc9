#pragma once
// Resumable experiment runs.
//
// run_experiment() assembles the stack, runs to the horizon, and tears it
// down — fine for one-shot measurement, useless for checkpointing. Run is
// the same assembly (exact same construction, observer, and deployment
// order, so results are bit-identical) held as a long-lived object that can
// pause at a device-quiescent instant, serialize itself into the snapshot
// container, and resume — in this process or another one.
//
// The restore contract mirrors the component layer's: a Run is always
// constructed normally first (the full stack, ctor-time scheduling and
// all), then restore_snapshot() overwrites the mutable state wholesale.
// Events the fresh construction scheduled die with the event-queue restore;
// every component rebinds the saved events it owns, and fully_bound() gates
// resumption. Construction is a pure function of the config, which is why
// the snapshot only carries state, never structure.
//
// The warm-start lever: ExperimentConfig::beta_switch schedules a mid-run
// grace-factor switch whose β lives only in the event's closure — never in
// the serialized state. Sweep points that differ only in beta_switch.beta
// therefore share byte-identical prefixes up to the switch instant; the
// sweep server snapshots one prefix and resumes it once per point.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "alarm/alarm_manager.hpp"
#include "alarm/doze.hpp"
#include "apps/system_alarms.hpp"
#include "apps/workload.hpp"
#include "exp/experiment.hpp"
#include "hw/device.hpp"
#include "hw/power_bus.hpp"
#include "hw/rtc.hpp"
#include "hw/wakelock.hpp"
#include "hw/wur.hpp"
#include "metrics/delay_stats.hpp"
#include "net/cellular.hpp"
#include "metrics/interval_audit.hpp"
#include "metrics/wakeup_breakdown.hpp"
#include "power/energy_accounting.hpp"
#include "sim/simulator.hpp"
#include "trace/delivery_log.hpp"
#include "trace/tracer.hpp"

namespace simty::exp {

/// One pausable, serializable experiment; see the file comment. Not
/// thread-safe (the whole stack is single-threaded by design), and the
/// config's tracer — installed thread-locally for the Run's lifetime —
/// pins the object to the constructing thread.
class Run {
 public:
  explicit Run(ExperimentConfig config);

  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  const ExperimentConfig& config() const { return config_; }
  TimePoint horizon() const { return horizon_; }
  TimePoint now() const { return sim_.now(); }

  /// Runs the event loop to `at` (<= horizon), then keeps stepping single
  /// events until the device reaches its quiescent point (asleep, no locks,
  /// no pending wake work) — the only instants the hardware layer can
  /// serialize from. Returns the reached virtual time.
  TimePoint advance_to_quiescent(TimePoint at);

  /// Serializes the paused run into snapshot-container bytes. Requires a
  /// device-quiescent instant (advance_to_quiescent).
  std::string save_snapshot() const;

  /// Restores state saved by save_snapshot() on a Run constructed from an
  /// identical config — identical except beta_switch.beta, which is
  /// intentionally outside the serialized state (warm starts resume the
  /// shared prefix under this config's β). Throws on a config mismatch
  /// (naming the first field that differs from the snapshot's β-blind
  /// encode_config fingerprint), a bad section layout or unbound events.
  void restore_snapshot(const std::string& bytes);

  /// Runs to the horizon, finalizes every integrator, and builds the
  /// RunResult exactly as run_experiment() does. One-shot.
  RunResult finish();

  /// The internally captured delivery log (config.capture_delivery_log);
  /// snapshots and restores with the run, unlike an external observer.
  const trace::DeliveryLog& delivery_log() const { return capture_log_; }

  sim::Simulator& simulator() { return sim_; }
  const hw::Device& device() const { return device_; }
  const hw::WakelockManager& wakelocks() const { return wakelocks_; }
  alarm::AlarmManager& alarm_manager() { return manager_; }

  /// Run's own fields: the "metrics" section, the delivery observers' state
  /// and Run's counters. Every other section is one component's.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("delays", self.delays_);
    f("audit", self.audit_);
    f("wakeups", self.wakeup_accounting_);
    f("perceptible_misses", self.perceptible_misses_);
    f("one_shots", self.one_shots_);
  }

 private:
  alarm::AlarmManager::HandlerResolver handler_resolver();

  ExperimentConfig config_;
  // Install the tracer before any member that might record, and open the
  // "run" span before the stack constructs — same event order as
  // run_experiment(), where TraceScope and the span begin precede the
  // Simulator. run_span_ exists only for its initializer's side effect.
  trace::TraceScope trace_scope_;
  int run_span_;
  sim::Simulator sim_;
  hw::PowerBus bus_;
  power::EnergyAccountant accountant_;
  // Listeners must attach before the Device constructor publishes its
  // initial state; listeners_wired_ exists only for its initializer.
  int listeners_wired_;
  hw::Device device_;
  hw::Rtc rtc_;
  hw::WakelockManager wakelocks_;
  alarm::AlarmManager manager_;
  metrics::DelayStats delays_;
  metrics::WakeupAccounting wakeup_accounting_;
  metrics::IntervalAudit audit_;
  std::uint64_t perceptible_misses_ = 0;
  std::uint64_t one_shots_ = 0;
  trace::DeliveryLog capture_log_;
  apps::Workload workload_;
  alarm::DozeController doze_;
  // DRX/paging scenario (config.drx): the receiver must outlive the
  // cellular harness whose pager points at it, so it is declared first.
  std::unique_ptr<hw::WakeupReceiver> wur_;
  std::unique_ptr<net::CellularStandby> cellular_;
  TimePoint horizon_;
  std::unique_ptr<apps::SystemAlarmSource> system_alarms_;
  std::optional<sim::EventId> beta_switch_event_;
  bool finished_ = false;
};

}  // namespace simty::exp
