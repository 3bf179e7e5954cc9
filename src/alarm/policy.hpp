#pragma once
// Alignment-policy interface.
//
// The alarm manager owns the queue mechanics that the paper describes as
// common to NATIVE and SIMTY (remove-same-alarm, dissolve-and-reinsert,
// wakeup/non-wakeup separation); a policy only answers one question: which
// existing entry, if any, should a new alarm join?
//
// Policies answer it through one of two paths. The legacy path,
// select_batch(), scans the whole queue linearly; it is retained as the
// reference implementation for differential checking. The indexed path
// splits the paper's search phase (§3.2.1) into its interval-overlap
// essence: candidate_query() names the incoming alarm's relevant interval
// and which cached entry interval it must overlap, the manager's BatchIndex
// answers that overlap query in O(log n + k), and select_among() runs the
// policy's selection phase over only those k candidates — handed over in
// ascending queue position, so first-found-wins tie-breaking is bit-
// identical to the linear scan.

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "alarm/alarm.hpp"
#include "alarm/batch.hpp"

namespace simty::alarm {

/// Which cached entry interval an overlap query tests (§3.2.1: window
/// overlap for NATIVE's batching rule, grace overlap for SIMTY's
/// applicability).
enum class EntryIntervalKind : std::uint8_t { kWindow = 0, kGrace };

/// An overlap query defining a policy's candidate set: every queue entry
/// whose `entry_kind` interval overlaps `interval` (an interval of the
/// incoming alarm). Entries outside the candidate set must be ones the
/// policy could never join — the manager only shows candidates to
/// select_among().
struct CandidateQuery {
  TimeInterval interval = TimeInterval::empty();
  EntryIntervalKind entry_kind = EntryIntervalKind::kGrace;
};

/// Strategy deciding where an alarm lands in the batch queue.
class AlignmentPolicy {
 public:
  virtual ~AlignmentPolicy() = default;

  /// Display name, e.g. "NATIVE", "SIMTY".
  virtual std::string name() const = 0;

  /// Returns the index (into `queue`, which is sorted by delivery time) of
  /// the entry the alarm should join, or nullopt to create a new entry.
  /// Linear reference implementation — production selection goes through
  /// candidate_query()/select_among() when a query is advertised.
  virtual std::optional<std::size_t> select_batch(
      const Alarm& alarm,
      const BatchQueue& queue) const = 0;

  /// The overlap query whose result set contains every entry this policy
  /// could join for `alarm`, or nullopt when the policy has no indexed
  /// path (the manager then falls back to select_batch).
  virtual std::optional<CandidateQuery> candidate_query(
      const Alarm& alarm) const {
    (void)alarm;
    return std::nullopt;
  }

  /// Selection over the candidate set only. `candidates` holds queue
  /// positions in ascending order; the contract is exact equivalence with
  /// select_batch over the full queue. Must be overridden by any policy
  /// that advertises a candidate_query.
  virtual std::optional<std::size_t> select_among(
      const Alarm& alarm, const BatchQueue& queue,
      std::span<const std::size_t> candidates) const;
};

}  // namespace simty::alarm
