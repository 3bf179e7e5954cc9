#pragma once
// Delivery-trace logging: the C++ analogue of the hooks the paper inserted
// into AlarmManager and the WakeLock API "to log every alarm's time
// attributes and hardware usage at runtime" (§4.1). The logger captures
// DeliveryRecords as structured rows; logs round-trip through CSV so traces
// can be archived, diffed between policies, and replayed as imitated apps.

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "alarm/alarm_manager.hpp"
#include "apps/trace_replay.hpp"
#include "apps/workload.hpp"

namespace simty::snapshot {
class Writer;
class SectionReader;
}  // namespace simty::snapshot

namespace simty::trace {

/// In-memory delivery trace with CSV (de)serialization. The log owns its
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

  /// Parses a CSV produced by to_csv(); throws std::runtime_error on
  /// malformed input.
  static DeliveryLog from_csv(const std::string& csv);

  /// File convenience wrappers.
  void save(const std::string& path) const;
  static DeliveryLog load(const std::string& path);

  /// The snapshot carries every record; restore() replaces the held
  /// records, so a resumed run's CSV export is byte-identical to a straight
  /// run's.
  void restore(snapshot::SectionReader& s);

  /// State fields, in snapshot order.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) { f("records", self.records_); }

  /// Extracts the per-delivery (hardware, hold) behaviour of one alarm tag
  /// as an AppTrace, ready to drive an ImitatedApp — the paper's
  /// trace-replay methodology end to end. Throws when the tag never
  /// delivered.
  apps::AppTrace app_trace(std::string_view tag) const;

 private:
  /// Appends `record` with its tag re-pointed at this log's store.
  void append(alarm::DeliveryRecord record);

  std::vector<alarm::DeliveryRecord> records_;
  std::set<std::string, std::less<>> tags_;  // node-based: views stay put
};

/// Reconstructs a replayable workload from a recorded delivery log: one
/// imitated app per distinct repeating wakeup tag, with the alarm's
/// attributes (mode, repeating interval, alpha) recovered from the records
/// and the observed holds replayed verbatim. One-shot records are skipped
/// (they come from system sources and retries, which re-generate them).
/// The full record-run-under-one-policy / replay-under-another workflow of
/// §4.1, as a single call.
apps::Workload workload_from_log(const DeliveryLog& log,
                                 const apps::WorkloadConfig& config);

}  // namespace simty::trace
