#pragma once
// Per-app energy attribution ("energy stealing" accounting, after the
// ISLPED'15 study the paper builds on [5]).
//
// Android's batterystats-style estimate: each delivery session's costs are
// split among the alarms it served — the wake transition and CPU-base cost
// evenly, each component's activation evenly among its users, and its
// active-power cost proportional to each user's hold. The result is an
// *estimate* reconstructed from the power model (the real rail energy is
// not separable by app); reconcile() quantifies the gap against measured
// awake energy.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "alarm/alarm_manager.hpp"
#include "common/units.hpp"
#include "hw/power_model.hpp"

namespace simty::power {

/// One app's (or tag's) estimated share.
struct EnergyShare {
  std::string label;
  Energy energy;
  std::uint64_t deliveries = 0;
};

/// Session observer accumulating per-app and per-alarm-tag estimates.
class AppEnergyAttributor {
 public:
  explicit AppEnergyAttributor(hw::PowerModel model);

  void observe(const alarm::SessionRecord& session);
  alarm::SessionObserver observer();

  /// Estimated totals by app id, most expensive first.
  std::vector<EnergyShare> by_app() const;

  /// Estimated totals by alarm tag, most expensive first.
  std::vector<EnergyShare> by_tag() const;

  /// Sum of all attributed energy.
  Energy attributed_total() const { return total_; }

  /// Relative gap between the attributed total and a measured awake
  /// energy: |attributed - measured| / measured.
  double reconcile(Energy measured_awake) const;

 private:
  struct Bucket {
    Energy energy;
    std::uint64_t deliveries = 0;
  };

  hw::PowerModel model_;
  std::map<std::uint32_t, Bucket> by_app_;
  std::map<std::string, Bucket, std::less<>> by_tag_;  // transparent: view lookups
  Energy total_;
};

}  // namespace simty::power
