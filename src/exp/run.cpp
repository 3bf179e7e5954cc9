#include "exp/run.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "hw/battery.hpp"
#include "snapshot/codec.hpp"

namespace simty::exp {

namespace {

apps::Workload make_workload(const ExperimentConfig& config) {
  apps::WorkloadConfig wc;
  wc.seed = config.seed;
  wc.beta = config.beta;
  common::Arena* arena = config.arena_opts.arena;
  if (!config.custom_profiles.empty()) {
    return apps::Workload::from_profiles(config.custom_profiles, wc, arena);
  }
  switch (config.workload) {
    case WorkloadKind::kLight: return apps::Workload::light(wc, arena);
    case WorkloadKind::kHeavy: return apps::Workload::heavy(wc, arena);
    case WorkloadKind::kSynthetic:
      return apps::Workload::synthetic(config.synthetic_apps, wc, arena);
  }
  SIMTY_CHECK_MSG(false, "unknown workload kind");
  return apps::Workload::light(wc, arena);
}

// `seed` goes unused when -DSIMTY_TRACING=OFF compiles the span out.
int begin_run_span([[maybe_unused]] std::uint64_t seed) {
  SIMTY_TRACE_SPAN_BEGIN(TimePoint::origin(), trace::TraceCategory::kExp, "run",
                         static_cast<std::int64_t>(seed));
  return 0;
}

int wire_listeners(hw::PowerBus& bus, power::EnergyAccountant& accountant,
                   const ExperimentConfig& config) {
  bus.add_listener(&accountant);
  if (config.extra_power_listener != nullptr) {
    bus.add_listener(config.extra_power_listener);
  }
  return 0;
}

// Section schema versions; bump a component's entry when its field list
// changes so old snapshots fail loudly instead of misparsing.
// v2: hw::Component gained kWur (accountant per-component array grew).
// v3: the run section carries the config fingerprint, not the horizon.
// v4: the event queue's staged hand-out and the batch index's counters left.
// v5: the tracer's always-zero drop count and the wakelocks' constant
//     anomaly, watchdog and tail-override slots left.
constexpr std::uint32_t kSectionVersion = 5;

}  // namespace

Run::Run(ExperimentConfig config)
    : config_(std::move(config)),
      trace_scope_(config_.tracer),
      run_span_(begin_run_span(config_.seed)),
      sim_(config_.arena_opts.arena),
      bus_(config_.arena_opts.arena),
      listeners_wired_(wire_listeners(bus_, accountant_, config_)),
      device_(sim_, config_.power_model, bus_),
      rtc_(sim_, device_),
      wakelocks_(sim_, config_.power_model, bus_),
      manager_(sim_, device_, rtc_, wakelocks_, make_policy(config_),
               config_.arena_opts.arena),
      audit_(config_.arena_opts.arena),
      workload_(make_workload(config_)),
      doze_(sim_, manager_, device_, alarm::DozeController::Config{}),
      horizon_(TimePoint::origin() + config_.duration) {
  static_cast<void>(run_span_);
  static_cast<void>(listeners_wired_);
  manager_.add_delivery_observer(delays_.observer());
  manager_.add_delivery_observer(wakeup_accounting_.observer());
  manager_.add_delivery_observer(audit_.observer());
  const Duration wake_latency = config_.power_model.wake_latency;
  manager_.add_delivery_observer([this, wake_latency](const alarm::DeliveryRecord& r) {
    if (r.mode == alarm::RepeatMode::kOneShot) ++one_shots_;
    // Perceptible deliveries must land inside the window; allow the wake
    // latency slip the paper itself observed.
    if (r.was_perceptible && r.delivered > r.window.end() + wake_latency) {
      ++perceptible_misses_;
    }
  });
  if (config_.capture_delivery_log) {
    manager_.add_delivery_observer(capture_log_.observer());
  }

  workload_.deploy(sim_, manager_);
  if (config_.doze) doze_.enable();

  if (config_.system_alarms) {
    apps::SystemAlarmConfig sys_cfg;
    sys_cfg.beta = config_.beta;
    system_alarms_ = std::make_unique<apps::SystemAlarmSource>(
        sim_, manager_, sys_cfg, Rng(config_.seed, 0x515));
    system_alarms_->start(horizon_);
  }

  if (config_.drx) {
    if (config_.drx->wur) {
      wur_ = std::make_unique<hw::WakeupReceiver>(sim_, config_.wur, bus_);
    }
    cellular_ = std::make_unique<net::CellularStandby>(sim_, manager_, bus_);
    cellular_->deploy_paging(device_, bus_, wur_.get(), *config_.drx,
                             Rng(config_.seed, 0xD2C));
  }

  if (config_.beta_switch) {
    // β is captured by the closure and nothing else: the serialized event
    // is identical across sweep points, only the rebind differs.
    const double beta = config_.beta_switch->beta;
    beta_switch_event_ = sim_.schedule_at(
        TimePoint::origin() + config_.beta_switch->at,
        [this, beta] {
          beta_switch_event_.reset();
          manager_.apply_grace_factor(beta);
        },
        sim::EventPriority::kFramework, "beta-switch");
  }
}

TimePoint Run::advance_to_quiescent(TimePoint at) {
  SIMTY_CHECK_MSG(!finished_, "Run::advance_to_quiescent after finish()");
  SIMTY_CHECK_MSG(at <= horizon_, "Run::advance_to_quiescent beyond the horizon");
  sim_.run_until(at);
  while (!device_.quiescent()) {
    SIMTY_CHECK_MSG(sim_.step(),
                    "Run::advance_to_quiescent: queue drained while awake");
    SIMTY_CHECK_MSG(sim_.now() <= horizon_,
                    "Run::advance_to_quiescent: no quiescent point before horizon");
  }
  return sim_.now();
}

alarm::AlarmManager::HandlerResolver Run::handler_resolver() {
  return [this](alarm::AppId app, const std::string& tag) -> alarm::DeliveryHandler {
    if (system_alarms_ && app == apps::SystemAlarmSource::kSystemApp) {
      return system_alarms_->handler_for(tag);
    }
    return workload_.handler_for(manager_, app, tag);
  };
}

std::string Run::save_snapshot() const {
  SIMTY_CHECK_MSG(!finished_, "Run::save_snapshot after finish()");
  SIMTY_CHECK_MSG(device_.quiescent(),
                  "Run::save_snapshot requires a quiescent device "
                  "(advance_to_quiescent first)");
  snapshot::Writer w;
  // One section per component, written as the codec writes a field of its
  // type; restore_snapshot reads them back in this order.
  const auto section = [&w](const char* name, const auto& state) {
    w.begin_section(name, kSectionVersion);
    snapshot::FieldWriter{w}(name, state);
    w.end_section();
  };
  section("sim", sim_);
  section("device", device_);
  section("wakelocks", wakelocks_);
  section("alarms", manager_);
  section("rtc", rtc_);
  section("doze", doze_);
  section("workload", workload_);
  if (system_alarms_) section("system-alarms", *system_alarms_);
  if (cellular_) section("cellular", *cellular_);
  if (wur_) section("wur", *wur_);
  section("accountant", accountant_);
  section("metrics", *this);
  if (config_.tracer != nullptr) section("tracer", *config_.tracer);
  if (config_.capture_delivery_log) section("delivery-log", capture_log_);
  w.begin_section("run", kSectionVersion);
  w.bytes(encode_config(config_, /*beta_blind=*/true));
  snapshot::FieldWriter{w}("beta_switch_event", beta_switch_event_);
  w.end_section();
  return w.finish();
}

void Run::restore_snapshot(const std::string& bytes) {
  SIMTY_CHECK_MSG(!finished_, "Run::restore_snapshot after finish()");
  const snapshot::Reader r(bytes);
  // The run section goes first: a snapshot of another config must not
  // touch any component.
  std::optional<sim::EventId> beta_switch_event;
  r.read_section("run", kSectionVersion, [&](snapshot::SectionReader& s) {
    const std::string_view fingerprint = s.bytes_view();
    if (fingerprint != encode_config(config_, /*beta_blind=*/true)) {
      const char* field =
          first_differing_field(config_, fingerprint, /*beta_blind=*/true);
      throw std::logic_error(std::string("Run::restore_snapshot: the snapshot was "
                                         "saved under another config (field '") +
                             (field != nullptr ? field : "?") + "' differs)");
    }
    snapshot::FieldReader{s}("beta_switch_event", beta_switch_event);
  });
  // Every section is read to its end: one that carries fields its
  // component does not list is rejected, naming the section.
  const auto restore = [&r](const char* name, auto&& read) {
    r.read_section(name, kSectionVersion, read);
  };
  const auto section = [&restore](const char* name, auto&& state) {
    restore(name,
            [&](snapshot::SectionReader& s) { snapshot::FieldReader{s}(name, state); });
  };
  section("sim", sim_);
  section("device", device_);
  section("wakelocks", wakelocks_);
  restore("alarms", [&](auto& s) { manager_.restore(s, handler_resolver()); });
  restore("rtc", [&](auto& s) { rtc_.restore(s, manager_.rtc_handler()); });
  section("doze", doze_);
  restore("workload", [&](auto& s) { workload_.restore(s, sim_, manager_); });
  if (system_alarms_) section("system-alarms", *system_alarms_);
  if (cellular_) section("cellular", *cellular_);
  if (wur_) section("wur", *wur_);
  // Device::restore re-published the asleep rail above; this overwrite is
  // what makes the republish invisible in the accounting.
  section("accountant", accountant_);
  section("metrics", *this);
  if (config_.tracer != nullptr) section("tracer", *config_.tracer);
  if (config_.capture_delivery_log) section("delivery-log", capture_log_);
  // The ctor's switch event died with the queue; rebind the saved one.
  beta_switch_event_ = beta_switch_event;
  if (beta_switch_event_) {
    // The fingerprint matched, so the config has the switch that is pending.
    const double beta = config_.beta_switch.value().beta;
    sim_.rebind(*beta_switch_event_, [this, beta] {
      beta_switch_event_.reset();
      manager_.apply_grace_factor(beta);
    });
  }
  SIMTY_CHECK_MSG(sim_.fully_bound(),
                  "Run::restore_snapshot: restored events left unbound");
}

RunResult Run::finish() {
  SIMTY_CHECK_MSG(!finished_, "Run::finish called twice");
  finished_ = true;
  sim_.run_until(horizon_);
  device_.finalize(horizon_);
  wakelocks_.finalize(horizon_);
  if (cellular_) cellular_->finalize(horizon_);
  if (wur_) wur_->finalize(horizon_);
  accountant_.finalize(horizon_);
  SIMTY_TRACE_SPAN_END(horizon_, trace::TraceCategory::kExp, "run",
                       static_cast<std::int64_t>(config_.seed));

  RunResult r;
  r.policy_name = manager_.policy().name();
  r.duration = config_.duration;
  r.energy = accountant_.breakdown();
  r.average_power_mw = accountant_.average_power().mw();
  const hw::Battery battery = hw::Battery::nexus5();
  r.projected_standby_hours =
      battery.projected_standby(accountant_.average_power()).seconds_f() / 3600.0;
  r.delay_perceptible = delays_.perceptible().average();
  r.delay_imperceptible = delays_.imperceptible().average();
  if (!delays_.imperceptible_distribution().empty()) {
    r.delay_imperceptible_p95 = delays_.imperceptible_distribution().quantile(0.95);
  }
  r.wakeups.reserve(metrics::WakeupAccounting::kRowCount);
  wakeup_accounting_.for_each_row(
      device_, wakelocks_,
      [&r](const char* hardware, std::uint64_t actual, std::uint64_t expected) {
        r.wakeups.push_back(RunResult::HwCounts{hardware, static_cast<double>(actual),
                                                static_cast<double>(expected)});
      });
  r.deliveries = static_cast<double>(manager_.stats().deliveries);
  r.batches_delivered = static_cast<double>(manager_.stats().batches_delivered);
  r.one_shots = static_cast<double>(one_shots_);
  r.awake_seconds = device_.total_awake_time().seconds_f();
  r.asleep_seconds = device_.total_asleep_time().seconds_f();
  r.worst_gap_ratio = audit_.worst_gap_ratio();
  r.gap_violations = audit_.check_bounds(config_.beta).size();
  r.perceptible_window_misses = perceptible_misses_;
  if (cellular_ && cellular_->pager() != nullptr) {
    const net::DrxPager& pager = *cellular_->pager();
    r.pages_answered = static_cast<double>(pager.pages_answered());
    if (!pager.page_delays().empty()) {
      r.page_delay_avg_s = pager.page_delays().mean();
      r.page_delay_p95_s = pager.page_delays().quantile(0.95);
    }
    r.drx_listen_seconds = pager.drx_listen_time().seconds_f();
  }
  if (wur_) {
    r.wur_listen_seconds = wur_->listen_time().seconds_f();
    r.wur_triggers = static_cast<double>(wur_->triggers());
  }
  return r;
}

RunResult run_experiment(ExperimentConfig config) {
  Run run(std::move(config));
  return run.finish();
}

}  // namespace simty::exp
