#pragma once
// Cellular connected-standby harness: the glue that gives the RRC machine
// an owner with a lifecycle. It registers repeating ".cell" sync alarms
// whose handlers drive data_activity(), and — crucially — it owns teardown:
// finalize(horizon) flushes the RRC machine's open DCH/FACH span into
// time_in(). A caller that wires RrcMachine by hand and forgets finalize()
// silently under-accounts the final span (and with it the per-state energy
// attribution), so every cellular workload should run through this harness
// rather than poking the machine directly.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alarm/alarm_manager.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/drx.hpp"
#include "net/rrc.hpp"
#include "snapshot/codec.hpp"

namespace simty::net {

/// One repeating cellular sync: the alarm attributes plus the data-activity
/// behaviour its delivery handler drives through the RRC machine.
struct CellularSyncSpec {
  std::string name;
  alarm::RepeatMode mode = alarm::RepeatMode::kStatic;
  Duration repeat = Duration::seconds(300);
  double alpha = 0.0;              // window fraction of the repeat interval
  Duration hold = Duration::seconds(2);  // nominal data-activity duration
  double hold_jitter = 0.0;        // +/- fraction of hold, drawn per delivery
};

/// Owns an RrcMachine and the sync alarms that drive it; see file comment.
class CellularStandby {
 public:
  CellularStandby(sim::Simulator& sim, alarm::AlarmManager& manager,
                  hw::PowerBus& bus, RrcConfig config = RrcConfig{});

  CellularStandby(const CellularStandby&) = delete;
  CellularStandby& operator=(const CellularStandby&) = delete;

  /// Registers one repeating ".cell" alarm per spec (app ids 1, 2, ... in
  /// spec order; first nominal staggered per app). Each spec's hold jitter
  /// draws from a stream forked off `rng` per app, so deployments are a
  /// pure function of the rng seed.
  void deploy(const std::vector<CellularSyncSpec>& specs, Rng rng, double beta);

  /// Deploys the downlink DRX/paging scenario (net/drx.hpp) on this
  /// harness's RRC machine and starts it. `wur` must be non-null iff
  /// config.wur, and must outlive the harness. At most once per harness.
  void deploy_paging(hw::Device& device, hw::PowerBus& bus,
                     hw::WakeupReceiver* wur, const DrxConfig& config, Rng rng);

  /// Flushes the RRC machine's open state span (and the pager's open
  /// on-duration, when paging is deployed) at the horizon. Must be called
  /// after the sim reaches the horizon and before reading rrc().time_in();
  /// idempotent at a fixed horizon.
  void finalize(TimePoint horizon);

  bool finalized() const { return finalized_; }

  RrcMachine& rrc() { return rrc_; }
  const RrcMachine& rrc() const { return rrc_; }

  /// The deployed pager, or null before deploy_paging().
  const DrxPager* pager() const { return pager_.get(); }

  /// Resolves delivery handlers for this harness's ".cell" alarms on
  /// restore; the rebuilt closure shares the deployed sync's rng stream.
  /// Returns an empty handler for foreign tags.
  alarm::DeliveryHandler handler_for(const std::string& tag);

  /// State fields, in snapshot order: the RRC machine, each deployed
  /// sync's rng position, and the pager when deployed. A restore requires
  /// an identical deploy() / deploy_paging() to have run first (same specs,
  /// seed, and β — the alarms themselves live in the manager).
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("finalized", self.finalized_);
    f("rrc", self.rrc_);
    f("deployed", snapshot::fixed(self.deployed_));
    f("pager", self.pager_);
  }

 private:
  /// A deployed sync's behaviour closure state, kept so restore can
  /// re-resolve handlers and resume the per-app jitter stream.
  struct DeployedSync {
    CellularSyncSpec spec;
    std::shared_ptr<Rng> rng;

    template <typename Self, typename F>
    static void for_each_state_field(Self& self, F&& f) { f("rng", *self.rng); }
  };

  alarm::DeliveryHandler sync_handler(const DeployedSync& sync);

  sim::Simulator& sim_;
  alarm::AlarmManager& manager_;
  RrcMachine rrc_;
  std::vector<DeployedSync> deployed_;
  std::unique_ptr<DrxPager> pager_;
  bool finalized_ = false;
};

}  // namespace simty::net
