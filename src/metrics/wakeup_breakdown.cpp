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
  out.reserve(kRowCount);
  for_each_row(device, wakelocks,
               [&out](const char* hardware, std::uint64_t actual, std::uint64_t expected) {
                 out.push_back(BreakdownRow{hardware, actual, expected});
               });
  return out;
}

}  // namespace simty::metrics
