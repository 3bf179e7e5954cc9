#pragma once
// Resident-application behaviour model.
//
// Each app owns one "major alarm" (Table 3) that periodically synchronizes
// with its servers or samples a sensor. The task behind a delivery wakelocks
// the app's hardware set for a jittered hold time — the jitter models the
// paper's "uncontrollable factors (like instant network speeds)".

#include <memory>
#include <optional>
#include <string>

#include "alarm/alarm_manager.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "hw/component.hpp"
#include "net/wifi_link.hpp"

namespace simty::snapshot {
class Writer;
class SectionReader;
}  // namespace simty::snapshot

namespace simty::apps {

/// Static description of one resident app's major alarm (a Table 3 row).
struct AppProfile {
  std::string name;                       // e.g. "Line"
  Duration repeat = Duration::zero();     // ReIn
  double alpha = 0.0;                     // window = alpha * ReIn
  alarm::RepeatMode mode = alarm::RepeatMode::kStatic;  // S/D column
  hw::ComponentSet hardware;              // HW Usage column
  Duration base_hold = Duration::zero();  // typical wakelock duration
  double hold_jitter = 0.0;               // +- relative jitter on the hold
  bool in_light = false;                  // member of the light workload
  bool irregular = false;                 // the five starred apps

  /// When > 0 and a Wi-Fi link model is attached, the sync moves this many
  /// bytes and the hold time follows the instantaneous link rate instead
  /// of base_hold (ref [8]'s rate-dependent transfers).
  std::uint64_t payload_bytes = 0;

  /// Probability that a delivery schedules a one-shot retry (failed sync /
  /// pending-work follow-up). One source of the "one-shot alarms" Table 4
  /// counts under CPU. Zero (the default) disables retries.
  double retry_probability = 0.0;

  /// Delay before a retry fires.
  Duration retry_backoff = Duration::seconds(30);
};

/// A deployed resident app: registers its major alarm and answers delivery
/// callbacks with its task behaviour.
class ResidentApp {
 public:
  ResidentApp(AppProfile profile, Rng rng);
  virtual ~ResidentApp() = default;

  const AppProfile& profile() const { return profile_; }

  /// Registers the major alarm with its first nominal delivery one
  /// repeating interval after launch. `app_id` labels trace records; `beta`
  /// is the grace factor assigned by the platform (SIMTY's knob).
  void launch(alarm::AlarmManager& manager, TimePoint now, alarm::AppId app_id,
              double beta = 0.96);

  /// Id of the registered major alarm; empty before launch.
  std::optional<alarm::AlarmId> alarm_id() const { return alarm_id_; }

  /// Attaches a Wi-Fi link model: payload-carrying tasks derive their hold
  /// from the instantaneous rate. Pass nullptr to detach.
  void attach_link(const net::WifiLink* link) { link_ = link; }

  std::uint64_t deliveries() const { return deliveries_; }

  /// One-shot retries scheduled so far.
  std::uint64_t retries() const { return retries_; }

  /// Delivery handler of the major alarm — the closure launch() registers,
  /// exposed so a snapshot restore can re-attach it by tag.
  alarm::DeliveryHandler major_handler(alarm::AlarmManager& manager);

  /// Delivery handler of the one-shot retry alarms.
  alarm::DeliveryHandler retry_handler();

  /// Serializes launch state, the rng stream position, and counters. The
  /// profile (and an imitated app's trace) is reconstructed from config,
  /// not carried in the snapshot. ImitatedApp extends with its cursor.
  virtual void save(snapshot::Writer& w) const;
  virtual void restore(snapshot::SectionReader& s);

  /// State fields, in snapshot order.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("alarm_id", self.alarm_id_);
    f("app_id", self.app_id_);
    f("rng", self.rng_);
    f("deliveries", self.deliveries_);
    f("retries", self.retries_);
  }

 protected:
  /// The task executed on each delivery; overridden by imitated apps.
  virtual alarm::TaskSpec next_task();

  AppProfile profile_;
  Rng rng_;
  const net::WifiLink* link_ = nullptr;

 private:
  void maybe_schedule_retry(alarm::AlarmManager& manager, TimePoint now);

  std::optional<alarm::AlarmId> alarm_id_;
  alarm::AppId app_id_;
  std::uint64_t deliveries_ = 0;
  std::uint64_t retries_ = 0;
};

/// Grace-interval factor used for every alarm in the paper's experiments.
inline constexpr double kPaperBeta = 0.96;

}  // namespace simty::apps
