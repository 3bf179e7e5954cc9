#include "net/cellular.hpp"

#include <memory>

#include "common/check.hpp"
#include "trace/tracer.hpp"

namespace simty::net {

CellularStandby::CellularStandby(sim::Simulator& sim, alarm::AlarmManager& manager,
                                 hw::PowerBus& bus, RrcConfig config)
    : sim_(sim), manager_(manager), rrc_(sim, config, bus) {}

void CellularStandby::deploy(const std::vector<CellularSyncSpec>& specs, Rng rng,
                             double beta) {
  SIMTY_CHECK_MSG(!finalized_, "CellularStandby::deploy after finalize");
  std::uint32_t app_seq = 1;
  for (const CellularSyncSpec& spec : specs) {
    // Per-app child stream: the draw sequence of one app is independent of
    // how many deliveries the others make.
    auto app_rng = std::make_shared<Rng>(rng.fork(app_seq));
    deployed_.push_back(DeployedSync{spec, app_rng});
    manager_.register_alarm(
        alarm::AlarmSpec::repeating(spec.name + ".cell", alarm::AppId{app_seq},
                                    spec.mode, spec.repeat, spec.alpha, beta),
        TimePoint::origin() + Duration::seconds(5 + app_seq * 7) + spec.repeat,
        sync_handler(deployed_.back()));
    ++app_seq;
  }
}

void CellularStandby::deploy_paging(hw::Device& device, hw::PowerBus& bus,
                                    hw::WakeupReceiver* wur,
                                    const DrxConfig& config, Rng rng) {
  SIMTY_CHECK_MSG(!finalized_, "CellularStandby::deploy_paging after finalize");
  SIMTY_CHECK_MSG(pager_ == nullptr,
                  "CellularStandby::deploy_paging called twice");
  pager_ = std::make_unique<DrxPager>(sim_, rrc_, device, bus, wur, config, rng);
  pager_->start();
}

alarm::DeliveryHandler CellularStandby::sync_handler(const DeployedSync& sync) {
  const Duration hold = sync.spec.hold;
  const double jitter = sync.spec.hold_jitter;
  std::shared_ptr<Rng> app_rng = sync.rng;
  RrcMachine* rrc = &rrc_;
  return [rrc, hold, jitter, app_rng](const alarm::Alarm&, TimePoint) {
    const Duration h = hold * app_rng->uniform(1.0 - jitter, 1.0 + jitter);
    rrc->data_activity(h);
    // CPU-only task spec: the radio rail is billed by the RRC machine.
    return alarm::TaskSpec{hw::ComponentSet::none(), h};
  };
}

alarm::DeliveryHandler CellularStandby::handler_for(const std::string& tag) {
  for (const DeployedSync& sync : deployed_) {
    if (tag == sync.spec.name + ".cell") return sync_handler(sync);
  }
  return {};
}

void CellularStandby::finalize(TimePoint horizon) {
  // time_in() spans are only complete after this flush; skipping it drops
  // the open DCH/FACH span from the accounting.
  if (pager_) pager_->finalize(horizon);
  rrc_.finalize(horizon);
  finalized_ = true;
  SIMTY_TRACE_INSTANT(horizon, trace::TraceCategory::kNet, "cellular-finalize",
                      static_cast<std::int64_t>(rrc_.idle_promotions() +
                                                rrc_.fach_promotions()));
}

}  // namespace simty::net
