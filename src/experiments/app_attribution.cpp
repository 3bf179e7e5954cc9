#include "experiments/app_attribution.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace simty::power {

AppEnergyAttributor::AppEnergyAttributor(hw::PowerModel model)
    : model_(std::move(model)) {}

void AppEnergyAttributor::observe(const alarm::SessionRecord& session) {
  if (session.items.empty()) return;
  const auto n = static_cast<double>(session.items.size());

  // Shared platform costs: wake transition (when this session pulled the
  // device out of suspend), the waking ramp, the CPU-base cost of the
  // session span, and the trailing idle linger.
  Energy shared = model_.awake_base * (session.cpu_session + model_.idle_linger);
  if (session.caused_wakeup) {
    shared += model_.wake_transition + model_.waking * model_.wake_latency;
  }
  const Energy shared_each = shared / n;

  // Component costs: activation split evenly among users; active power
  // split by hold (the serialization chain bills each task roughly its own
  // hold, scaled by the component's serial fraction for successors — we
  // approximate with hold-proportional shares of the modelled on-time).
  struct ComponentUse {
    double total_hold_s = 0.0;
    int users = 0;
  };
  std::map<hw::Component, ComponentUse> uses;
  for (const alarm::SessionItem& item : session.items) {
    item.hardware.for_each([&](hw::Component c) {
      ComponentUse& u = uses[c];
      u.total_hold_s += item.hold.seconds_f();
      ++u.users;
    });
  }
  // Modelled on-time per component under the serialization chain:
  // max-hold + serial_fraction * (sum - max) is a close analytic proxy.
  std::map<hw::Component, double> on_time_s;
  for (auto& [c, u] : uses) {
    double max_hold = 0.0;
    for (const alarm::SessionItem& item : session.items) {
      if (item.hardware.contains(c)) {
        max_hold = std::max(max_hold, item.hold.seconds_f());
      }
    }
    const double sf = model_.component(c).serial_fraction;
    on_time_s[c] = max_hold + sf * (u.total_hold_s - max_hold);
  }

  for (const alarm::SessionItem& item : session.items) {
    Energy e = shared_each;
    item.hardware.for_each([&](hw::Component c) {
      const ComponentUse& u = uses.at(c);
      const hw::ComponentPower& p = model_.component(c);
      e += p.activation / static_cast<double>(u.users);
      if (u.total_hold_s > 0.0) {
        const double share = item.hold.seconds_f() / u.total_hold_s;
        e += p.active * Duration::from_seconds(on_time_s.at(c) * share);
      }
    });
    Bucket& app = by_app_[item.app.value];
    app.energy += e;
    ++app.deliveries;
    auto tag_it = by_tag_.find(item.tag);
    if (tag_it == by_tag_.end()) tag_it = by_tag_.emplace(item.tag, Bucket{}).first;
    Bucket& tag = tag_it->second;
    tag.energy += e;
    ++tag.deliveries;
    total_ += e;
  }
}

alarm::SessionObserver AppEnergyAttributor::observer() {
  return [this](const alarm::SessionRecord& s) { observe(s); };
}

std::vector<EnergyShare> AppEnergyAttributor::by_app() const {
  std::vector<EnergyShare> out;
  for (const auto& [app, bucket] : by_app_) {
    out.push_back(EnergyShare{"app" + std::to_string(app), bucket.energy,
                              bucket.deliveries});
  }
  std::sort(out.begin(), out.end(), [](const EnergyShare& a, const EnergyShare& b) {
    return a.energy > b.energy;
  });
  return out;
}

std::vector<EnergyShare> AppEnergyAttributor::by_tag() const {
  std::vector<EnergyShare> out;
  for (const auto& [tag, bucket] : by_tag_) {
    out.push_back(EnergyShare{tag, bucket.energy, bucket.deliveries});
  }
  std::sort(out.begin(), out.end(), [](const EnergyShare& a, const EnergyShare& b) {
    return a.energy > b.energy;
  });
  return out;
}

double AppEnergyAttributor::reconcile(Energy measured_awake) const {
  SIMTY_CHECK_MSG(measured_awake > Energy::zero(),
                  "reconcile needs a positive measured energy");
  return std::fabs(total_.mj() - measured_awake.mj()) / measured_awake.mj();
}

}  // namespace simty::power
