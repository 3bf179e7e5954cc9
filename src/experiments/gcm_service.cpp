#include "experiments/gcm_service.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace simty::gcm {

GcmService::GcmService(sim::Simulator& sim, hw::Device& device,
                       hw::WakelockManager& wakelocks,
                       alarm::AlarmManager& manager, GcmConfig config,
                       const net::WifiLink* link)
    : sim_(sim), device_(device), wakelocks_(wakelocks), manager_(manager),
      config_(config), link_(link) {
  SIMTY_CHECK(config_.heartbeat_interval > Duration::zero());
}

void GcmService::connect() {
  SIMTY_CHECK_MSG(!heartbeat_id_.has_value(), "GCM already connected");
  // The keepalive is an ordinary imperceptible dynamic-repeating alarm: it
  // re-anchors on each actual exchange and is aligned like any app sync.
  heartbeat_id_ = manager_.register_alarm(
      alarm::AlarmSpec::repeating("gcm.heartbeat", alarm::AppId{9000},
                                  alarm::RepeatMode::kDynamic,
                                  config_.heartbeat_interval, 0.75, 0.96),
      sim_.now() + config_.heartbeat_interval,
      [this](const alarm::Alarm&, TimePoint) {
        ++heartbeats_;
        return alarm::TaskSpec{hw::ComponentSet{hw::Component::kWifi},
                               config_.heartbeat_hold};
      });
}

void GcmService::subscribe(std::string topic, PushHandler handler) {
  SIMTY_CHECK(static_cast<bool>(handler));
  SIMTY_CHECK_MSG(!handlers_.contains(topic), "topic already subscribed: " + topic);
  handlers_.emplace(std::move(topic), std::move(handler));
}

void GcmService::on_incoming(PushMessage message) {
  device_.request_awake(hw::WakeReason::kExternalPush, [this, message] {
    const auto it = handlers_.find(message.topic);
    if (it == handlers_.end()) {
      ++dropped_;
      return;
    }
    // Fetch session: CPU held for the payload transfer, radio wakelocked.
    const Duration fetch = link_ != nullptr
                               ? link_->transfer_time(message.payload_bytes)
                               : config_.default_fetch_hold;
    device_.acquire_cpu_lock();
    const hw::WakelockId lock = wakelocks_.acquire(hw::Component::kWifi);
    sim_.schedule_after(
        fetch,
        [this, lock, message, handler = &it->second] {
          wakelocks_.release(lock);
          ++delivered_;
          (*handler)(message);
          device_.release_cpu_lock();
        },
        sim::EventPriority::kFramework, "gcm-fetch-complete");
  });
}

PushServer::PushServer(sim::Simulator& sim, GcmService& service,
                       std::vector<TopicTraffic> traffic, Rng rng)
    : sim_(sim), service_(service), traffic_(std::move(traffic)), rng_(rng) {
  for (const TopicTraffic& t : traffic_) {
    SIMTY_CHECK_MSG(t.mean_gap > Duration::zero(),
                    "push topic needs a positive mean gap: " + t.topic);
  }
}

void PushServer::start(TimePoint horizon) {
  horizon_ = horizon;
  for (std::size_t i = 0; i < traffic_.size(); ++i) spawn(i);
}

void PushServer::spawn(std::size_t topic_index) {
  const TopicTraffic& t = traffic_[topic_index];
  const Duration gap = Duration::from_seconds(rng_.exponential(t.mean_gap.seconds_f()));
  const TimePoint when = sim_.now() + std::max(gap, Duration::seconds(1));
  if (when >= horizon_) return;
  sim_.schedule_at(
      when,
      [this, topic_index] {
        const TopicTraffic& topic = traffic_[topic_index];
        ++sent_;
        service_.on_incoming(
            PushMessage{topic.topic, topic.payload_bytes, sim_.now()});
        spawn(topic_index);
      },
      sim::EventPriority::kApp, "gcm-push");
}

}  // namespace simty::gcm
