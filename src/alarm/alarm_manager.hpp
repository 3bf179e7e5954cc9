#pragma once
// The alarm manager: registration, batching, RTC programming, delivery,
// and wakeup-session execution (Figure 1 of the paper).
//
// Queue mechanics common to every policy live here: alarms are queued in
// entries (batches) in increasing delivery-time order; wakeup and
// non-wakeup alarms are managed in separate queues (§2.1/§3.2.1); when an
// alarm that is still queued is re-registered, its entry is dissolved and
// all members are reinserted in nominal order (the realignment rule);
// repeating alarms are reinserted immediately after delivery — at
// nominal + ReIn for static repeating, at delivery-time + ReIn for dynamic
// repeating. The plugged AlignmentPolicy only chooses which entry a new
// alarm joins.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "alarm/alarm.hpp"
#include "alarm/batch.hpp"
#include "alarm/policy.hpp"
#include "common/arena.hpp"
#include "hw/device.hpp"
#include "hw/rtc.hpp"
#include "hw/wakelock.hpp"
#include "sim/simulator.hpp"
#include "snapshot/codec.hpp"

namespace simty::alarm {

/// What an alarm's task does once delivered: which components it wakelocks
/// and for how long. An empty set with zero hold is a CPU-only handler.
struct TaskSpec {
  hw::ComponentSet hardware;
  Duration hold = Duration::zero();
};

/// App-side behaviour invoked at delivery; returns the task to execute.
using DeliveryHandler = std::function<TaskSpec(const Alarm&, TimePoint delivered_at)>;

/// Everything observers need to compute the paper's metrics for one
/// delivered alarm. `tag` views the registered alarm's own tag, which lives
/// as long as the manager (a cancelled or delivered one-shot alarm stays in
/// the registry, unregistered); an observer that keeps a record longer than
/// that must copy the tag.
struct DeliveryRecord {
  AlarmId id;
  std::string_view tag;
  AppId app;
  AlarmKind kind = AlarmKind::kWakeup;
  RepeatMode mode = RepeatMode::kOneShot;
  Duration repeat_interval = Duration::zero();
  TimePoint nominal;
  TimePoint delivered;
  TimeInterval window = TimeInterval::empty();
  bool was_perceptible = false;       // classification at delivery time
  hw::ComponentSet hardware_used;
  Duration hold = Duration::zero();
  std::size_t batch_size = 0;

  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("id", self.id);
    f("tag", self.tag);
    f("app", self.app);
    f("kind", self.kind);
    f("mode", self.mode);
    f("repeat_interval", self.repeat_interval);
    f("nominal", self.nominal);
    f("delivered", self.delivered);
    f("window", self.window);
    f("was_perceptible", self.was_perceptible);
    f("hardware_used", self.hardware_used);
    f("hold", self.hold);
    f("batch_size", self.batch_size);
  }
};

using DeliveryObserver = std::function<void(const DeliveryRecord&)>;

/// One alarm's task inside a joint delivery session. `tag` views the
/// alarm's tag, as DeliveryRecord::tag does.
struct SessionItem {
  AlarmId id;
  AppId app;
  std::string_view tag;
  hw::ComponentSet hardware;
  Duration hold = Duration::zero();
};

/// One joint delivery session (one batch executed on the device), as needed
/// for per-app energy attribution. Observers receive the manager's reused
/// session buffer: copy what must outlive the callback.
struct SessionRecord {
  TimePoint start;
  Duration cpu_session = Duration::zero();  // CPU wakelock span
  bool caused_wakeup = false;  // first session after a sleep->awake cycle
  std::vector<SessionItem> items;
};

using SessionObserver = std::function<void(const SessionRecord&)>;

/// Hook consulted when programming the RTC for the head entry: may defer
/// the proposed wakeup further (never earlier). The lever behind doze-style
/// maintenance windows, which quantize ALL wakeups regardless of windows —
/// unlike alignment policies, a gate may break the §3.2.2 guarantees; the
/// interval audit quantifies the damage.
using DeliveryGate = std::function<TimePoint(TimePoint proposed)>;

/// Central wakeup management (the paper's modified AlarmManagerService).
class AlarmManager {
 public:
  struct Stats {
    std::uint64_t registrations = 0;
    std::uint64_t deliveries = 0;          // individual alarm deliveries
    std::uint64_t batches_delivered = 0;   // joint delivery sessions
    std::uint64_t realignments = 0;        // dissolve-and-reinsert events
    std::uint64_t handler_failures = 0;    // app handlers that threw

    template <typename Self, typename F>
    static void for_each_state_field(Self& self, F&& f) {
      f("registrations", self.registrations);
      f("deliveries", self.deliveries);
      f("batches_delivered", self.batches_delivered);
      f("realignments", self.realignments);
      f("handler_failures", self.handler_failures);
    }
  };

  /// All dependencies must outlive the manager. A non-null `arena` backs
  /// the manager's per-run state — registered alarms, the registry table,
  /// batches, both queues and the observer lists (per-shard in the fleet
  /// runner); it must outlive the manager and must not be reset while it
  /// lives.
  AlarmManager(sim::Simulator& sim, hw::Device& device, hw::Rtc& rtc,
               hw::WakelockManager& wakelocks,
               common::ArenaPtr<AlignmentPolicy> policy,
               common::Arena* arena = nullptr);

  AlarmManager(const AlarmManager&) = delete;
  AlarmManager& operator=(const AlarmManager&) = delete;

  /// Registers an alarm and queues its first instance at `first_nominal`
  /// (must be >= now). `handler` runs at each delivery.
  AlarmId register_alarm(AlarmSpec spec, TimePoint first_nominal,
                         DeliveryHandler handler);

  /// Re-registers a queued alarm at a new nominal time. If the alarm is
  /// still queued, its entry is dissolved and every member reinserted in
  /// nominal order (§2.1's realignment rule).
  void set(AlarmId id, TimePoint nominal);

  /// Cancels and removes an alarm entirely.
  void cancel(AlarmId id);

  /// Dissolves every entry and reinserts all alarms in nominal order under
  /// the current policy.
  void rebatch_all();

  bool is_registered(AlarmId id) const;
  const Alarm* find(AlarmId id) const;

  /// Registers a callback for every alarm delivery.
  void add_delivery_observer(DeliveryObserver observer);

  /// Registers a callback for every joint delivery session.
  void add_session_observer(SessionObserver observer);

  /// Installs (or clears, with nullptr-like default) the delivery gate.
  void set_delivery_gate(DeliveryGate gate);

  const AlignmentPolicy& policy() const { return *policy_; }
  const Stats& stats() const { return stats_; }

  /// Read-only view of a batch queue (sorted by delivery time).
  const BatchQueue& queue(AlarmKind kind) const;

  /// Enables the stable_sort order check after every insert (see
  /// sort_queue). O(n log n) per insert — tests only.
  void set_slow_queue_checks(bool enabled) { slow_queue_checks_ = enabled; }

  /// Maps a registered alarm back to its delivery handler on restore.
  /// Closures are not serializable, so the owning workload components
  /// re-supply each handler from the alarm's app identity and tag.
  using HandlerResolver =
      std::function<DeliveryHandler(AppId app, const std::string& tag)>;

  /// Rebuilds registry and queues from `s`; `resolver` re-supplies each
  /// alarm's delivery handler. The queue structure is restored verbatim —
  /// no policy decisions re-run — and the pending non-wakeup check is
  /// rebound rather than rescheduled. The RTC carries its own programmed
  /// deadline; it rebinds with rtc_handler() instead of reprogramming.
  void restore(snapshot::SectionReader& s, const HandlerResolver& resolver);

  /// State fields, in snapshot order.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("next_id", self.next_id_);
    f("last_seen_wakeups", self.last_seen_wakeups_);
    f("stats", self.stats_);
    // The registered alarms, in id order; restore() resolves their handlers.
    f("alarms", snapshot::by_hand(
        self, [](snapshot::Writer& w, const auto& m) { m.save_alarms(w); },
        [](snapshot::SectionReader& s, auto& m) { m.restore_alarms(s); }));
    // Each queue as its batches' member ids (structure, not policy
    // decisions).
    for (const AlarmKind kind : {AlarmKind::kWakeup, AlarmKind::kNonWakeup}) {
      f(kind == AlarmKind::kWakeup ? "wakeup_queue" : "nonwakeup_queue",
        snapshot::by_hand(
            self, [kind](snapshot::Writer& w, const auto& m) { m.save_queue(w, kind); },
            [kind](snapshot::SectionReader& s, auto& m) { m.restore_queue(s, kind); }));
    }
    f("nonwakeup_check", self.nonwakeup_check_);
  }

  /// The deliver-due closure reprogramming normally installs on the RTC —
  /// hw::Rtc::restore needs it re-supplied.
  std::function<void()> rtc_handler();

  /// Applies a new grace factor β to every repeating alarm
  /// (grace = max(β·repeat, window)) and rebatches under the current
  /// policy — the warm-start sweep lever: a restored common prefix
  /// continues under a different β.
  void apply_grace_factor(double beta);

  /// Verifies internal invariants; returns human-readable violations
  /// (empty = healthy). Checked invariants: queues sorted by delivery
  /// time; every queued alarm registered and queued exactly once; no empty
  /// batches; grace overlap non-empty in every entry; perceptible entries
  /// have non-empty window overlap; RTC programmed to the wakeup head.
  std::vector<std::string> check_invariants() const;

 private:
  /// One registry row per id issued (or restored). A cancelled or delivered
  /// one-shot alarm keeps its row, with the handler dropped: its tag must
  /// outlive it (see DeliveryRecord). Rows never move — Batch members point
  /// at `alarm`, and a running handler may register alarms that grow the
  /// table — so each is its own arena object.
  struct Registered {
    Registered(Alarm a, DeliveryHandler h)
        : alarm(std::move(a)), handler(std::move(h)) {}
    Alarm alarm;
    DeliveryHandler handler;  // empty iff the alarm is no longer registered
  };

  /// The row of `id`, or nullptr. Ids are issued densely from 1, so row
  /// id - 1 answers a straight run; a restored registry holds only the
  /// saved alarms (ids with gaps, still ascending) and is searched.
  Registered* row(AlarmId id);
  const Registered* row(AlarmId id) const;

  /// The row of a registered alarm; throws naming `what` otherwise.
  Registered& registered(AlarmId id, const char* what);

  // The hand-coded fields of for_each_state_field.
  void save_alarms(snapshot::Writer& w) const;
  void restore_alarms(snapshot::SectionReader& s);
  void save_queue(snapshot::Writer& w, AlarmKind kind) const;
  void restore_queue(snapshot::SectionReader& s, AlarmKind kind);

  BatchQueue& queue_ref(AlarmKind kind);

  /// Places an alarm via the policy, keeps the queue sorted, reprograms.
  void insert(Alarm* a);

  /// A singleton entry holding `first`: a recycled batch when one is spare,
  /// a new one otherwise.
  common::ArenaPtr<Batch> make_batch(Alarm* first);

  /// Returns a batch that left the queue to the spare list. Spares are
  /// scratch storage, never state: snapshots do not see them.
  void recycle(common::ArenaPtr<Batch> batch);

  /// Restores sorted order after the batch at `index` changed its delivery
  /// time (a member joined): rotates only the affected batch to its new
  /// position. Equivalent to the old full stable_sort — see sort_queue.
  void reposition(BatchQueue& q, std::size_t index);

  /// Removes `id` from its queue if present; dissolves the entry and
  /// reinserts the remaining members in nominal order. Returns true if the
  /// alarm was queued.
  bool remove_from_queue(AlarmId id);

  /// Debug check (the old full re-sort, demoted): asserts that the
  /// incrementally maintained queue order matches what a stable_sort of
  /// the current queue would produce. Gated by slow_queue_checks_.
  void sort_queue(AlarmKind kind) const;
  void reprogram_rtc();
  void schedule_nonwakeup_check();

  /// Delivers every due batch in `kind`'s queue (device must be awake).
  void deliver_due(AlarmKind kind);

  void deliver_batch(common::ArenaPtr<Batch> batch);
  void on_device_wake(hw::WakeReason reason);

  sim::Simulator& sim_;
  hw::Device& device_;
  hw::Rtc& rtc_;
  hw::WakelockManager& wakelocks_;
  common::ArenaPtr<AlignmentPolicy> policy_;
  common::Arena* arena_;

  // Rows in ascending id order (see row()); delivery records, session
  // items and staggered wakelock acquisitions view the rows' alarm tags.
  common::ArenaVector<common::ArenaPtr<Registered>> registry_;
  std::size_t registered_count_ = 0;  // rows with a handler
  BatchQueue queues_[2];
  BatchQueue spare_batches_;  // see recycle()
  SessionRecord session_;  // deliver_batch scratch, reused across sessions
  bool delivering_ = false;  // deliver_batch reentrancy guard
  common::ArenaVector<DeliveryObserver> observers_;
  common::ArenaVector<SessionObserver> session_observers_;
  DeliveryGate delivery_gate_;
  std::optional<sim::EventId> nonwakeup_check_;
  Stats stats_;
  std::uint64_t next_id_ = 1;
  std::uint64_t last_seen_wakeups_ = 0;
  bool slow_queue_checks_ = false;
};

}  // namespace simty::alarm
