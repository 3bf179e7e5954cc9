#pragma once
// Delivery-trace logging: the C++ analogue of the hooks the paper inserted
// into AlarmManager and the WakeLock API "to log every alarm's time
// attributes and hardware usage at runtime" (§4.1). The logger captures
// DeliveryRecords as structured rows and exports them as CSV, so traces
// can be archived and diffed between policies.

#include <set>
#include <string>
#include <vector>

#include "alarm/alarm_manager.hpp"

namespace simty::snapshot {
class Writer;
class SectionReader;
}  // namespace simty::snapshot

namespace simty::trace {

/// In-memory delivery trace with a CSV export. The log owns its
/// records' tags: each distinct tag is stored once, and the records' tag
/// views point into that store. Moving a std::set keeps its nodes, so a
/// moved log's views stay valid; a copy would not, so copying is deleted.
class DeliveryLog {
 public:
  DeliveryLog() = default;
  DeliveryLog(const DeliveryLog&) = delete;
  DeliveryLog& operator=(const DeliveryLog&) = delete;
  DeliveryLog(DeliveryLog&&) noexcept = default;
  DeliveryLog& operator=(DeliveryLog&&) noexcept = default;

  void observe(const alarm::DeliveryRecord& record);
  alarm::DeliveryObserver observer();

  const std::vector<alarm::DeliveryRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

  /// Serializes to CSV (one row per delivery).
  std::string to_csv() const;

  /// The snapshot carries every record; restore() replaces the held
  /// records, so a resumed run's CSV export is byte-identical to a straight
  /// run's.
  void restore(snapshot::SectionReader& s);

  /// State fields, in snapshot order.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) { f("records", self.records_); }

 private:
  /// Appends `record` with its tag re-pointed at this log's store.
  void append(alarm::DeliveryRecord record);

  std::vector<alarm::DeliveryRecord> records_;
  std::set<std::string, std::less<>> tags_;  // node-based: views stay put
};

}  // namespace simty::trace
