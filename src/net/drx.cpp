#include "net/drx.hpp"

#include "common/check.hpp"
#include "snapshot/codec.hpp"
#include "trace/tracer.hpp"

namespace simty::net {

DrxPager::DrxPager(sim::Simulator& sim, RrcMachine& rrc, hw::Device& device,
                   hw::PowerBus& bus, hw::WakeupReceiver* wur, DrxConfig config,
                   Rng rng)
    : sim_(sim), rrc_(rrc), device_(device), bus_(bus), wur_(wur),
      config_(config), rng_(rng), listen_since_(sim.now()) {
  SIMTY_CHECK_MSG(config_.paging_cycle > Duration::zero(),
                  "DrxPager: paging cycle must be positive");
  SIMTY_CHECK_MSG(config_.on_duration > Duration::zero() &&
                      config_.on_duration < config_.paging_cycle,
                  "DrxPager: on-duration must fit inside the paging cycle");
  SIMTY_CHECK_MSG(config_.mean_page_gap > Duration::zero(),
                  "DrxPager: mean page gap must be positive");
  SIMTY_CHECK_MSG(!config_.page_hold.is_negative(),
                  "DrxPager: page hold must be >= 0");
  SIMTY_CHECK_MSG(!config_.wur_delay_budget.is_negative(),
                  "DrxPager: delay budget must be >= 0");
  SIMTY_CHECK_MSG(!config_.wur || wur_ != nullptr,
                  "DrxPager: WuR mode needs a WakeupReceiver");
}

void DrxPager::start() {
  SIMTY_CHECK_MSG(!arrival_event_, "DrxPager::start called twice");
  schedule_next_arrival();
  if (config_.wur) {
    // Gate the receiver's listen rail to IDLE: while connected, pages ride
    // the open connection and the WuR has nothing to decode.
    rrc_.set_state_observer([this](RrcState s) {
      if (s == RrcState::kIdle) {
        wur_->start_listening();
      } else {
        wur_->stop_listening();
      }
    });
    if (rrc_.state() == RrcState::kIdle) wur_->start_listening();
  } else {
    occasion_event_ = sim_.schedule_at(
        sim_.now() + config_.paging_cycle, [this] { on_occasion(); },
        sim::EventPriority::kHardware, "drx-occasion");
  }
}

void DrxPager::schedule_next_arrival() {
  const Duration gap = Duration::from_seconds(
      rng_.exponential(config_.mean_page_gap.seconds_f()));
  arrival_event_ = sim_.schedule_after(gap, [this] { on_arrival(); },
                                       sim::EventPriority::kHardware,
                                       "page-arrival");
}

void DrxPager::on_arrival() {
  const TimePoint now = sim_.now();
  ++pages_arrived_;
  schedule_next_arrival();
  SIMTY_TRACE_INSTANT(now, trace::TraceCategory::kNet, "page-arrival",
                      static_cast<std::int64_t>(pages_arrived_));
  pending_.push_back(now);
  if (rrc_.state() != RrcState::kIdle) {
    // Connected: the page rides the open connection — answer right away.
    ++immediate_pages_;
    deliver_pending();
    return;
  }
  if (config_.wur) {
    // The receiver decodes every page's wake-up sequence; the first one in
    // a budget window arms the single batched answer.
    const Duration latency = wur_->trigger();
    if (!answer_event_) {
      answer_event_ = sim_.schedule_at(
          now + latency + config_.wur_delay_budget, [this] { answer_now(); },
          sim::EventPriority::kHardware, "wur-answer");
    }
  }
  // DRX mode: queued until the next paging occasion.
}

void DrxPager::on_occasion() {
  const TimePoint now = sim_.now();
  occasion_event_ = sim_.schedule_at(now + config_.paging_cycle,
                                     [this] { on_occasion(); },
                                     sim::EventPriority::kHardware,
                                     "drx-occasion");
  if (rrc_.state() != RrcState::kIdle) return;  // connected: no paging listen
  ++occasions_listened_;
  listen_open_ = true;
  listen_since_ = now;
  bus_.publish_component_power(now, hw::Component::kCellular, true,
                               config_.listen);
  listen_end_event_ = sim_.schedule_at(now + config_.on_duration,
                                       [this] { end_listen(); },
                                       sim::EventPriority::kHardware,
                                       "drx-listen-end");
  if (!pending_.empty()) deliver_pending();
}

void DrxPager::end_listen() {
  const TimePoint now = sim_.now();
  listen_end_event_.reset();
  listen_open_ = false;
  drx_listen_time_ += now - listen_since_;
  // A promotion during the on-duration already took the rail to DCH; only
  // power down if the radio is still idle-listening.
  if (rrc_.state() == RrcState::kIdle) {
    bus_.publish_component_power(now, hw::Component::kCellular, false,
                                 Power::zero());
  }
}

void DrxPager::answer_now() {
  answer_event_.reset();
  deliver_pending();
}

void DrxPager::deliver_pending() {
  if (pending_.empty()) return;
  device_.request_awake(hw::WakeReason::kExternalPush, [this] {
    // Pages may have been answered by an earlier overlapping wake.
    if (pending_.empty()) return;
    const TimePoint now = sim_.now();
    for (const TimePoint arrival : pending_) {
      delays_.add((now - arrival).seconds_f());
    }
    pages_answered_ += pending_.size();
    pending_.clear();
    device_.acquire_cpu_lock();
    rrc_.data_activity(config_.page_hold);
    sim_.schedule_after(config_.page_hold,
                        [this] { device_.release_cpu_lock(); },
                        sim::EventPriority::kFramework, "page-hold");
  });
}

void DrxPager::finalize(TimePoint horizon) {
  if (listen_open_) {
    SIMTY_CHECK_MSG(horizon >= listen_since_,
                    "DrxPager::finalize: horizon before the open on-duration");
    drx_listen_time_ += horizon - listen_since_;
    listen_since_ = horizon;  // idempotent at a fixed horizon
  }
}

void DrxPager::save(snapshot::Writer& w) const { snapshot::write_fields(w, *this); }

void DrxPager::restore(snapshot::SectionReader& s) {
  snapshot::read_fields(s, *this);
  SIMTY_CHECK_MSG(arrival_event_.has_value(),
                  "DrxPager::restore: missing arrival event");
  SIMTY_CHECK_MSG(!occasion_event_ || !config_.wur,
                  "DrxPager::restore: DRX occasion under a WuR config");
  SIMTY_CHECK_MSG(!answer_event_ || config_.wur,
                  "DrxPager::restore: WuR answer under a DRX config");
  sim_.rebind(*arrival_event_, [this] { on_arrival(); });
  if (occasion_event_) sim_.rebind(*occasion_event_, [this] { on_occasion(); });
  if (listen_end_event_) {
    sim_.rebind(*listen_end_event_, [this] { end_listen(); });
  }
  if (answer_event_) sim_.rebind(*answer_event_, [this] { answer_now(); });
  SIMTY_CHECK_MSG(listen_open_ == listen_end_event_.has_value(),
                  "DrxPager::restore: listen window and end event disagree");
  if (listen_open_) {
    // Mid on-duration: re-announce the listen rail for the fresh listener
    // stack (the accountant's restore overwrites its integrals afterwards).
    bus_.publish_component_power(sim_.now(), hw::Component::kCellular, true,
                                 config_.listen);
  }
}

}  // namespace simty::net
