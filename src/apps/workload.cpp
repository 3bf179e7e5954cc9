#include "apps/workload.hpp"

#include "apps/app_catalog.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"
#include "snapshot/codec.hpp"

namespace simty::apps {

Workload::Workload(WorkloadConfig config, common::Arena* arena)
    : config_(config), arena_(arena), apps_(arena), launch_events_(arena) {}

void Workload::add_profiles(const std::vector<AppProfile>& profiles, Rng& rng) {
  apps_.reserve(profiles.size());
  for (const AppProfile& profile : profiles) {
    AppProfile p = profile;  // the app's own copy, moved in below
    if (config_.retry_probability >= 0.0) {
      p.retry_probability = config_.retry_probability;
    }
    if (p.irregular) {
      // The paper's methodology: irregular apps are replaced by imitated
      // apps replaying a pre-recorded trace (here recorded on demand, a
      // prefix of one fixed stream). The trace seed is derived from the app
      // name only, NOT the run seed — the same trace is replayed under
      // NATIVE and SIMTY for a fair comparison. The hash starts from
      // the FNV offset basis with its last digit dropped, as it always has:
      // the standard basis would re-record every imitated trace.
      const std::uint64_t seed = common::fnv1a64(p.name, 1469598103934665603ull);
      apps_.push_back(common::make_arena_ptr<ImitatedApp>(
          arena_, std::move(p), kImitatedTraceLength, seed, arena_));
    } else {
      const Rng app_rng = rng.fork(apps_.size());
      apps_.push_back(common::make_arena_ptr<ResidentApp>(arena_, std::move(p), app_rng));
    }
  }
}

Workload Workload::light(const WorkloadConfig& config, common::Arena* arena) {
  Workload w(config, arena);
  Rng rng(config.seed, 0xA11);
  w.add_profiles(light_workload_profiles(), rng);
  return w;
}

Workload Workload::heavy(const WorkloadConfig& config, common::Arena* arena) {
  Workload w(config, arena);
  Rng rng(config.seed, 0xB22);
  w.add_profiles(heavy_workload_profiles(), rng);
  return w;
}

Workload Workload::from_profiles(const std::vector<AppProfile>& profiles,
                                 const WorkloadConfig& config, common::Arena* arena) {
  SIMTY_CHECK_MSG(!profiles.empty(), "custom workload needs at least one profile");
  Workload w(config, arena);
  Rng rng(config.seed, 0xD44);
  w.add_profiles(profiles, rng);
  return w;
}

Workload Workload::synthetic(std::size_t n, const WorkloadConfig& config,
                             common::Arena* arena) {
  SIMTY_CHECK(n > 0);
  Workload w(config, arena);
  Rng rng(config.seed, 0xC33);

  // Attribute ranges mirror Table 3's population: mostly Wi-Fi messengers,
  // some sensors, occasional notifiers.
  static const std::int64_t kRepeats[] = {60, 90, 180, 200, 270, 300, 600, 900};
  for (std::size_t i = 0; i < n; ++i) {
    AppProfile p;
    p.name = "synth" + std::to_string(i);
    p.repeat = Duration::seconds(kRepeats[rng.next_below(8)]);
    p.alpha = rng.chance(0.5) ? 0.75 : 0.0;
    p.mode = rng.chance(0.5) ? alarm::RepeatMode::kDynamic : alarm::RepeatMode::kStatic;
    const double kind = rng.next_double();
    if (kind < 0.70) {
      p.hardware = hw::ComponentSet{hw::Component::kWifi};
      p.base_hold = Duration::from_seconds(rng.uniform(1.5, 3.0));
    } else if (kind < 0.85) {
      p.hardware = hw::ComponentSet{hw::Component::kAccelerometer};
      p.base_hold = Duration::from_seconds(rng.uniform(1.0, 3.0));
    } else if (kind < 0.95) {
      p.hardware = hw::ComponentSet{hw::Component::kWps};
      p.base_hold = Duration::seconds(10);
    } else {
      p.hardware =
          hw::ComponentSet{hw::Component::kSpeaker, hw::Component::kVibrator};
      p.base_hold = Duration::seconds(1);
    }
    p.hold_jitter = 0.3;
    w.apps_.push_back(
        common::make_arena_ptr<ResidentApp>(arena, std::move(p), rng.fork(1000 + i)));
  }
  return w;
}

void Workload::deploy(sim::Simulator& sim, alarm::AlarmManager& manager,
                      const net::WifiLink* link) {
  TimePoint launch = TimePoint::origin() + config_.first_launch;
  std::uint32_t app_seq = 1;
  launch_events_.clear();
  launch_events_.reserve(apps_.size());
  for (const auto& app : apps_) {
    ResidentApp* raw = app.get();
    raw->attach_link(link);
    const alarm::AppId id{app_seq++};
    const double beta = config_.beta;
    launch_events_.push_back(sim.schedule_at(
        launch,
        [raw, &manager, &sim, id, beta] {
          raw->launch(manager, sim.now(), id, beta);
        },
        sim::EventPriority::kApp, "app-launch"));
    launch += config_.launch_gap;
  }
}

alarm::DeliveryHandler Workload::handler_for(alarm::AlarmManager& manager,
                                             alarm::AppId app,
                                             const std::string& tag) {
  if (app.value == 0 || app.value > apps_.size()) return {};
  ResidentApp& owner = *apps_[app.value - 1];
  const std::string& name = owner.profile().name;
  if (tag == name + ".major") return owner.major_handler(manager);
  if (tag.rfind(name + ".retry.", 0) == 0) return owner.retry_handler();
  return {};
}

void Workload::restore(snapshot::SectionReader& s, sim::Simulator& sim,
                       alarm::AlarmManager& manager) {
  snapshot::read_fields(s, *this);
  for (std::size_t i = 0; i < launch_events_.size(); ++i) {
    // A launch that already fired left its alarm id behind; only still-
    // pending launches have a live event to rebind. Rebinding captures the
    // workload-config β — matching the straight run, where the launch
    // closure was built before any β switch.
    if (apps_[i]->alarm_id().has_value()) continue;
    ResidentApp* raw = apps_[i].get();
    const alarm::AppId id{static_cast<std::uint32_t>(i + 1)};
    const double beta = config_.beta;
    sim.rebind(launch_events_[i], [raw, &manager, &sim, id, beta] {
      raw->launch(manager, sim.now(), id, beta);
    });
  }
}

}  // namespace simty::apps
