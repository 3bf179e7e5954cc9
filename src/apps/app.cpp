#include "apps/app.hpp"

#include <algorithm>
#include <string_view>

#include "common/check.hpp"
#include "snapshot/codec.hpp"

namespace simty::apps {

ResidentApp::ResidentApp(AppProfile profile, Rng rng)
    : profile_(std::move(profile)), rng_(rng) {
  SIMTY_CHECK_MSG(profile_.repeat > Duration::zero(),
                  "resident apps have repeating major alarms");
  SIMTY_CHECK(profile_.alpha >= 0.0 && profile_.alpha < 1.0);
  SIMTY_CHECK(profile_.hold_jitter >= 0.0 && profile_.hold_jitter < 1.0);
  SIMTY_CHECK(profile_.retry_probability >= 0.0 && profile_.retry_probability <= 1.0);
}

void ResidentApp::launch(alarm::AlarmManager& manager, TimePoint now,
                         alarm::AppId app_id, double beta) {
  SIMTY_CHECK_MSG(!alarm_id_.has_value(), "app already launched");
  // The platform assigns the grace factor; it must cover the app's window
  // (grace >= window, §3.1.2).
  const double grace = std::max(beta, profile_.alpha);
  constexpr std::string_view kSuffix = ".major";
  std::string tag;
  tag.reserve(profile_.name.size() + kSuffix.size());  // one allocation, if any
  tag.append(profile_.name).append(kSuffix);
  alarm::AlarmSpec spec = alarm::AlarmSpec::repeating(
      std::move(tag), app_id, profile_.mode, profile_.repeat, profile_.alpha, grace);
  app_id_ = app_id;
  alarm_id_ = manager.register_alarm(std::move(spec), now + profile_.repeat,
                                     major_handler(manager));
}

alarm::DeliveryHandler ResidentApp::major_handler(alarm::AlarmManager& manager) {
  return [this, &manager](const alarm::Alarm&, TimePoint delivered_at) {
    ++deliveries_;
    maybe_schedule_retry(manager, delivered_at);
    return next_task();
  };
}

alarm::DeliveryHandler ResidentApp::retry_handler() {
  return [this](const alarm::Alarm&, TimePoint) { return next_task(); };
}

void ResidentApp::save(snapshot::Writer& w) const { snapshot::write_fields(w, *this); }

void ResidentApp::restore(snapshot::SectionReader& s) {
  snapshot::read_fields(s, *this);
  SIMTY_CHECK_MSG(!alarm_id_ || alarm_id_->value != 0,
                  "ResidentApp::restore: null alarm id");
}

void ResidentApp::maybe_schedule_retry(alarm::AlarmManager& manager, TimePoint now) {
  if (profile_.retry_probability <= 0.0) return;
  if (!rng_.chance(profile_.retry_probability)) return;
  ++retries_;
  // A one-shot follow-up: perceptible by definition (footnote 5), delivered
  // within a short window, running the same task once more.
  manager.register_alarm(
      alarm::AlarmSpec::one_shot(
          profile_.name + ".retry." + std::to_string(retries_), app_id_,
          Duration::seconds(30)),
      now + profile_.retry_backoff, retry_handler());
}

alarm::TaskSpec ResidentApp::next_task() {
  // Payload-sized syncs follow the instantaneous link rate when a link
  // model is attached; otherwise the profiled hold (with jitter standing
  // in for the network variability) applies.
  if (link_ != nullptr && profile_.payload_bytes > 0) {
    double payload = static_cast<double>(profile_.payload_bytes);
    if (profile_.hold_jitter > 0.0) {
      payload *= rng_.uniform(1.0 - profile_.hold_jitter, 1.0 + profile_.hold_jitter);
    }
    const Duration hold =
        link_->transfer_time(static_cast<std::uint64_t>(payload));
    return alarm::TaskSpec{profile_.hardware, hold};
  }
  Duration hold = profile_.base_hold;
  if (profile_.hold_jitter > 0.0 && !hold.is_zero()) {
    hold = hold * rng_.uniform(1.0 - profile_.hold_jitter, 1.0 + profile_.hold_jitter);
  }
  return alarm::TaskSpec{profile_.hardware, hold};
}

}  // namespace simty::apps
