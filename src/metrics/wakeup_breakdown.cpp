#include "metrics/wakeup_breakdown.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "snapshot/snapshot.hpp"

namespace simty::metrics {

std::string BreakdownRow::ratio_string() const {
  return str_format("%llu/%llu", static_cast<unsigned long long>(actual),
                    static_cast<unsigned long long>(expected));
}

void WakeupAccounting::observe(const alarm::DeliveryRecord& record) {
  ++total_deliveries_;
  record.hardware_used.for_each(
      [this](hw::Component c) { ++per_component_[static_cast<std::size_t>(c)]; });
}

alarm::DeliveryObserver WakeupAccounting::observer() {
  return [this](const alarm::DeliveryRecord& r) { observe(r); };
}

std::uint64_t WakeupAccounting::deliveries_using(hw::Component c) const {
  return per_component_[static_cast<std::size_t>(c)];
}

void WakeupAccounting::save(snapshot::Writer& w) const {
  w.u64(total_deliveries_);
  for (const std::uint64_t n : per_component_) w.u64(n);
}

void WakeupAccounting::restore(snapshot::SectionReader& s) {
  total_deliveries_ = s.u64();
  for (std::uint64_t& n : per_component_) n = s.u64();
}

std::vector<BreakdownRow> WakeupAccounting::rows(
    const hw::Device& device, const hw::WakelockManager& wakelocks) const {
  std::vector<BreakdownRow> out;
  out.push_back(BreakdownRow{"CPU", device.wakeup_count(), total_deliveries_});

  // The speaker and vibrator always fire together in the workloads (a
  // notification buzzes and rings), so Table 4 reports them as one row; we
  // take the larger cycle count in case an app ever uses only one of them.
  const std::uint64_t sv_cycles =
      std::max(wakelocks.usage(hw::Component::kSpeaker).cycles,
               wakelocks.usage(hw::Component::kVibrator).cycles);
  const std::uint64_t sv_expected =
      std::max(deliveries_using(hw::Component::kSpeaker),
               deliveries_using(hw::Component::kVibrator));
  out.push_back(BreakdownRow{"Speaker&Vibrator", sv_cycles, sv_expected});

  const struct {
    const char* name;
    hw::Component c;
  } kRows[] = {
      {"Wi-Fi", hw::Component::kWifi},
      {"WPS", hw::Component::kWps},
      {"Accelerometer", hw::Component::kAccelerometer},
  };
  for (const auto& r : kRows) {
    out.push_back(
        BreakdownRow{r.name, wakelocks.usage(r.c).cycles, deliveries_using(r.c)});
  }
  return out;
}

}  // namespace simty::metrics
