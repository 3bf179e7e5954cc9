#include "metrics/wakeup_breakdown.hpp"

#include <algorithm>

#include "common/strings.hpp"

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

std::vector<BreakdownRow> WakeupAccounting::rows(
    const hw::Device& device, const hw::WakelockManager& wakelocks) const {
  std::vector<BreakdownRow> out;
  out.reserve(kRowCount);
  for_each_row(device, wakelocks,
               [&out](const char* hardware, std::uint64_t actual, std::uint64_t expected) {
                 out.push_back(BreakdownRow{hardware, actual, expected});
               });
  return out;
}

}  // namespace simty::metrics
