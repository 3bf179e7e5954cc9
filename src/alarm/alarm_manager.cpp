#include "alarm/alarm_manager.hpp"

#include <algorithm>
#include <map>

#include "common/check.hpp"
#include "common/strings.hpp"
#include "snapshot/codec.hpp"
#include "trace/tracer.hpp"

namespace simty::alarm {

AlarmManager::AlarmManager(sim::Simulator& sim, hw::Device& device, hw::Rtc& rtc,
                           hw::WakelockManager& wakelocks,
                           common::ArenaPtr<AlignmentPolicy> policy,
                           common::Arena* arena)
    : sim_(sim), device_(device), rtc_(rtc), wakelocks_(wakelocks),
      policy_(std::move(policy)), arena_(arena), registry_(arena),
      spare_batches_(arena), observers_(arena), session_observers_(arena) {
  SIMTY_CHECK(policy_ != nullptr);
  for (BatchQueue& q : queues_) q.set_arena(arena);
  device_.add_wake_listener([this](hw::WakeReason r) { on_device_wake(r); });
}

AlarmManager::Registered* AlarmManager::row(AlarmId id) {
  return const_cast<Registered*>(std::as_const(*this).row(id));
}

const AlarmManager::Registered* AlarmManager::row(AlarmId id) const {
  const std::uint64_t i = id.value - 1;
  if (i < registry_.size() && registry_[i]->alarm.id() == id) return registry_[i].get();
  const auto* it = std::lower_bound(
      registry_.begin(), registry_.end(), id,
      [](const common::ArenaPtr<Registered>& r, AlarmId v) { return r->alarm.id() < v; });
  return it != registry_.end() && (*it)->alarm.id() == id ? it->get() : nullptr;
}

AlarmManager::Registered& AlarmManager::registered(AlarmId id, const char* what) {
  Registered* r = row(id);
  SIMTY_CHECK_MSG(r != nullptr && r->handler, std::string(what) + ": unknown alarm");
  return *r;
}

AlarmId AlarmManager::register_alarm(AlarmSpec spec, TimePoint first_nominal,
                                     DeliveryHandler handler) {
  spec.validate();
  SIMTY_CHECK(static_cast<bool>(handler));
  SIMTY_CHECK_MSG(first_nominal >= sim_.now(),
                  "alarm nominal time must not be in the past");
  const AlarmId id{next_id_++};
  Registered& reg = *registry_.emplace_back(common::make_arena_ptr<Registered>(
      arena_, Alarm(id, std::move(spec), first_nominal), std::move(handler)));
  ++registered_count_;
  ++stats_.registrations;
  insert(&reg.alarm);
  return id;
}

void AlarmManager::set(AlarmId id, TimePoint nominal) {
  Alarm& alarm = registered(id, "set").alarm;
  SIMTY_CHECK_MSG(nominal >= sim_.now(), "set: nominal time in the past");
  remove_from_queue(id);
  alarm.reschedule(nominal);
  insert(&alarm);
}

void AlarmManager::cancel(AlarmId id) {
  Registered& reg = registered(id, "cancel");
  remove_from_queue(id);
  reg.handler = nullptr;
  --registered_count_;
  reprogram_rtc();
  schedule_nonwakeup_check();
}

void AlarmManager::rebatch_all() {
  // Pull every queued alarm out, then reinsert in nominal order under the
  // current policy — Android's rebatchAllAlarms.
  std::vector<Alarm*> alarms;
  for (BatchQueue& q : queues_) {
    for (common::ArenaPtr<Batch>& batch : q) {
      for (Alarm* a : batch->members()) alarms.push_back(a);
      recycle(std::move(batch));
    }
    q.clear();
  }
  std::sort(alarms.begin(), alarms.end(), [](const Alarm* x, const Alarm* y) {
    return x->nominal() < y->nominal();
  });
  ++stats_.realignments;
  SIMTY_TRACE_INSTANT(sim_.now(), trace::TraceCategory::kAlarm, "rebatch-all",
                      static_cast<std::int64_t>(alarms.size()));
  for (Alarm* a : alarms) insert(a);
  reprogram_rtc();
  schedule_nonwakeup_check();
}

bool AlarmManager::is_registered(AlarmId id) const {
  const Registered* r = row(id);
  return r != nullptr && r->handler;
}

const Alarm* AlarmManager::find(AlarmId id) const {
  return is_registered(id) ? &row(id)->alarm : nullptr;
}

void AlarmManager::add_delivery_observer(DeliveryObserver observer) {
  SIMTY_CHECK(static_cast<bool>(observer));
  observers_.push_back(std::move(observer));
}

void AlarmManager::add_session_observer(SessionObserver observer) {
  SIMTY_CHECK(static_cast<bool>(observer));
  session_observers_.push_back(std::move(observer));
}

void AlarmManager::set_delivery_gate(DeliveryGate gate) {
  delivery_gate_ = std::move(gate);
  reprogram_rtc();
}

const BatchQueue& AlarmManager::queue(AlarmKind kind) const {
  return queues_[static_cast<std::size_t>(kind)];
}

BatchQueue& AlarmManager::queue_ref(AlarmKind kind) {
  return queues_[static_cast<std::size_t>(kind)];
}

void AlarmManager::insert(Alarm* a) {
  const AlarmKind kind = a->spec().kind;
  auto& q = queue_ref(kind);
  const std::optional<std::size_t> slot = policy_->select_batch(*a, q);
  if (slot) {
    SIMTY_CHECK(*slot < q.size());
    Batch& entry = *q[*slot];
    entry.add(a);
    SIMTY_CHECK_MSG(!entry.grace_interval().is_empty(),
                    "policy joined an entry with no grace overlap");
    SIMTY_TRACE_INSTANT(sim_.now(), trace::TraceCategory::kAlarm, "batch-join",
                        static_cast<std::int64_t>(entry.size()));
    reposition(q, *slot);
  } else {
    // New singleton entry: a stable_sort would place it after every entry
    // with an equal delivery time (it was appended last), i.e. upper_bound.
    common::ArenaPtr<Batch> batch = make_batch(a);
    const TimePoint t = batch->delivery_time();
    common::ArenaPtr<Batch>* pos = std::upper_bound(
        q.begin(), q.end(), t, [](TimePoint value, const common::ArenaPtr<Batch>& b) {
          return value < b->delivery_time();
        });
    q.insert(pos, std::move(batch));
    SIMTY_TRACE_INSTANT(sim_.now(), trace::TraceCategory::kAlarm, "batch-create",
                        static_cast<std::int64_t>(q.size()));
  }
  if (slow_queue_checks_) sort_queue(kind);
  if (kind == AlarmKind::kWakeup) {
    reprogram_rtc();
  } else {
    schedule_nonwakeup_check();
  }
}

bool AlarmManager::remove_from_queue(AlarmId id) {
  for (BatchQueue& q : queues_) {
    common::ArenaPtr<Batch>* it = std::find_if(
        q.begin(), q.end(), [&](const auto& b) { return b->contains(id); });
    if (it == q.end()) continue;

    // Realignment (§2.1): pull the whole entry out and reinsert the other
    // members in nominal order; the caller reinserts the target alarm.
    common::ArenaPtr<Batch> batch = std::move(*it);
    q.erase(it);
    batch->remove(id);
    if (!batch->empty()) {
      ++stats_.realignments;
      SIMTY_TRACE_INSTANT(sim_.now(), trace::TraceCategory::kAlarm, "batch-split",
                          static_cast<std::int64_t>(batch->size()));
      std::vector<Alarm*> members(batch->members().begin(), batch->members().end());
      std::sort(members.begin(), members.end(), [](const Alarm* x, const Alarm* y) {
        return x->nominal() < y->nominal();
      });
      for (Alarm* m : members) insert(m);
    }
    recycle(std::move(batch));
    reprogram_rtc();
    schedule_nonwakeup_check();
    return true;
  }
  return false;
}

common::ArenaPtr<Batch> AlarmManager::make_batch(Alarm* first) {
  if (spare_batches_.empty()) return common::make_arena_ptr<Batch>(arena_, first, arena_);
  common::ArenaPtr<Batch> batch = std::move(spare_batches_.back());
  spare_batches_.pop_back();
  batch->reset(first);
  return batch;
}

void AlarmManager::recycle(common::ArenaPtr<Batch> batch) {
  spare_batches_.push_back(std::move(batch));
}

void AlarmManager::reposition(BatchQueue& q, std::size_t index) {
  // The queue was sorted before q[index] changed key, so at most this one
  // entry is out of place. Moving it to upper_bound (key decreased) or
  // lower_bound (key increased) of the others reproduces exactly what the
  // old full stable_sort produced: every equal-key entry was on the side
  // the bound preserves (the array was sorted, so equal keys could only
  // sit before a decreased key / after an increased one), and stable_sort
  // keeps relative order with all of them.
  const TimePoint t = q[index]->delivery_time();
  if (index > 0 && q[index - 1]->delivery_time() > t) {
    const auto pos = std::upper_bound(
        q.begin(), q.begin() + static_cast<std::ptrdiff_t>(index), t,
        [](TimePoint value, const common::ArenaPtr<Batch>& b) {
          return value < b->delivery_time();
        });
    std::rotate(pos, q.begin() + static_cast<std::ptrdiff_t>(index),
                q.begin() + static_cast<std::ptrdiff_t>(index) + 1);
  } else if (index + 1 < q.size() && q[index + 1]->delivery_time() < t) {
    const auto pos = std::lower_bound(
        q.begin() + static_cast<std::ptrdiff_t>(index) + 1, q.end(), t,
        [](const common::ArenaPtr<Batch>& b, TimePoint value) {
          return b->delivery_time() < value;
        });
    std::rotate(q.begin() + static_cast<std::ptrdiff_t>(index),
                q.begin() + static_cast<std::ptrdiff_t>(index) + 1, pos);
  }
}

void AlarmManager::sort_queue(AlarmKind kind) const {
  const auto& q = queue(kind);
  std::vector<const Batch*> expected;
  expected.reserve(q.size());
  for (const common::ArenaPtr<Batch>& b : q) expected.push_back(b.get());
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Batch* x, const Batch* y) {
                     return x->delivery_time() < y->delivery_time();
                   });
  for (std::size_t i = 0; i < q.size(); ++i) {
    SIMTY_CHECK_MSG(expected[i] == q[i].get(),
                    "incremental queue maintenance diverged from stable_sort");
  }
}

void AlarmManager::reprogram_rtc() {
  const auto& q = queue(AlarmKind::kWakeup);
  if (q.empty()) {
    rtc_.clear();
    return;
  }
  TimePoint head = std::max(q.front()->delivery_time(), sim_.now());
  if (delivery_gate_) {
    const TimePoint gated = delivery_gate_(head);
    SIMTY_CHECK_MSG(gated >= head, "delivery gate must not advance wakeups");
    head = gated;
  }
  if (rtc_.programmed() == head) return;
  rtc_.program(head, [this] { deliver_due(AlarmKind::kWakeup); });
}

void AlarmManager::schedule_nonwakeup_check() {
  if (nonwakeup_check_) {
    sim_.cancel(*nonwakeup_check_);
    nonwakeup_check_.reset();
  }
  // Non-wakeup alarms are only delivered while the device is awake for some
  // other reason (§2.1).
  if (device_.state() != hw::DeviceState::kAwake) return;
  const auto& q = queue(AlarmKind::kNonWakeup);
  if (q.empty()) return;
  const TimePoint head = std::max(q.front()->delivery_time(), sim_.now());
  nonwakeup_check_ = sim_.schedule_at(
      head,
      [this] {
        nonwakeup_check_.reset();
        if (device_.state() == hw::DeviceState::kAwake) {
          deliver_due(AlarmKind::kNonWakeup);
        }
      },
      sim::EventPriority::kFramework, "nonwakeup-check");
}

void AlarmManager::deliver_due(AlarmKind kind) {
  auto& q = queue_ref(kind);
  const TimePoint now = sim_.now();
  while (!q.empty() && q.front()->delivery_time() <= now) {
    common::ArenaPtr<Batch> batch = std::move(q.front());
    q.erase(q.begin());
    deliver_batch(std::move(batch));
  }
  if (kind == AlarmKind::kWakeup) {
    // The device is awake right now: flush any due non-wakeup work too.
    deliver_due(AlarmKind::kNonWakeup);
    reprogram_rtc();
  }
  schedule_nonwakeup_check();
}

void AlarmManager::deliver_batch(common::ArenaPtr<Batch> batch) {
  SIMTY_CHECK(device_.state() == hw::DeviceState::kAwake);
  // session_ and the spare list are single-session scratch.
  SIMTY_CHECK_MSG(!delivering_, "deliver_batch re-entered");
  delivering_ = true;
  struct ClearOnExit {
    bool& flag;
    ~ClearOnExit() { flag = false; }
  } clear_on_exit{delivering_};

  const TimePoint now = sim_.now();
  ++stats_.batches_delivered;
  SIMTY_TRACE_INSTANT(now, trace::TraceCategory::kAlarm, "batch-deliver",
                      static_cast<std::int64_t>(batch->size()));

  // The framework holds a CPU wakelock for the whole joint session.
  device_.acquire_cpu_lock();

  // Per-component serialization chains: the first task's hold starts now;
  // each successor starts after serial_fraction of its predecessor's hold
  // (0 = perfect piggybacking, 1 = fully serialized).
  std::array<Duration, hw::kComponentCount> chain_offset{};
  const hw::PowerModel& pm = device_.power_model();
  Duration session_busy = Duration::zero();

  session_.items.clear();
  session_.start = now;
  session_.caused_wakeup = device_.wakeup_count() != last_seen_wakeups_;
  last_seen_wakeups_ = device_.wakeup_count();

  for (Alarm* a : batch->members()) {
    Registered& reg = registered(a->id(), "deliver");
    const bool was_perceptible = a->perceptible();
    // Outlives the one-shot registration, which ends below (see Registered).
    const std::string_view tag = a->spec().tag;

    // App code may throw (the real framework survives crashing receivers);
    // a failed handler degrades to an empty task and the alarm keeps its
    // schedule — the crash must not take down the other batch members.
    TaskSpec task;
    try {
      task = reg.handler(*a, now);
    } catch (const std::exception&) {
      ++stats_.handler_failures;
      task = TaskSpec{};
    }
    SIMTY_CHECK_MSG(!task.hold.is_negative(), "task hold must be >= 0");

    // Stagger this task's wakelocks on each component's chain.
    Duration task_end = Duration::zero();
    task.hardware.for_each([&](hw::Component c) {
      const auto ci = static_cast<std::size_t>(c);
      const Duration start = chain_offset[ci];
      const Duration end = start + task.hold;
      task_end = std::max(task_end, end);
      chain_offset[ci] = start + pm.component(c).serial_fraction * task.hold;

      sim_.schedule_at(
          now + start,
          [this, c, hold = task.hold] {
            const hw::WakelockId lock = wakelocks_.acquire(c);
            sim_.schedule_after(hold, [this, lock] { wakelocks_.release(lock); },
                                sim::EventPriority::kFramework, "wakelock-release");
          },
          sim::EventPriority::kFramework, "wakelock-acquire");
    });
    session_busy = std::max(session_busy, task_end);

    ++stats_.deliveries;
    a->record_delivery(task.hardware, task.hold);

    DeliveryRecord record;
    record.id = a->id();
    record.tag = tag;
    record.app = a->spec().app;
    record.kind = a->spec().kind;
    record.mode = a->spec().mode;
    record.repeat_interval = a->spec().repeat_interval;
    record.nominal = a->nominal();
    record.delivered = now;
    record.window = a->window_interval();
    record.was_perceptible = was_perceptible;
    record.hardware_used = task.hardware;
    record.hold = task.hold;
    record.batch_size = batch->size();
    for (const DeliveryObserver& obs : observers_) obs(record);
    if (!session_observers_.empty()) {
      session_.items.push_back(
          SessionItem{a->id(), a->spec().app, tag, task.hardware, task.hold});
    }

    // Reinsertion of repeating alarms (§2.1): static repeating stays on its
    // nominal grid; dynamic repeating is re-anchored at the delivery time.
    switch (a->spec().mode) {
      case RepeatMode::kOneShot:
        reg.handler = nullptr;
        --registered_count_;
        break;
      case RepeatMode::kStatic: {
        TimePoint next = a->nominal() + a->spec().repeat_interval;
        while (next < now) next += a->spec().repeat_interval;
        a->reschedule(next);
        insert(a);
        break;
      }
      case RepeatMode::kDynamic:
        a->reschedule(now + a->spec().repeat_interval);
        insert(a);
        break;
    }
  }

  // Hold the CPU until every task completes, at least the handler floor.
  const Duration cpu_span = std::max(session_busy, pm.handler_floor);
  sim_.schedule_after(cpu_span, [this] { device_.release_cpu_lock(); },
                      sim::EventPriority::kFramework, "session-end");

  session_.cpu_session = cpu_span;
  for (const SessionObserver& obs : session_observers_) obs(session_);
  recycle(std::move(batch));
}

std::vector<std::string> AlarmManager::check_invariants() const {
  std::vector<std::string> issues;
  std::map<std::uint64_t, int> seen;
  for (const AlarmKind kind : {AlarmKind::kWakeup, AlarmKind::kNonWakeup}) {
    const auto& q = queue(kind);
    for (std::size_t i = 0; i < q.size(); ++i) {
      const Batch& b = *q[i];
      if (b.empty()) {
        issues.push_back(str_format("%s[%zu]: empty batch", to_string(kind), i));
        continue;
      }
      if (i > 0 && q[i - 1]->delivery_time() > b.delivery_time()) {
        issues.push_back(str_format("%s[%zu]: queue out of order", to_string(kind), i));
      }
      if (b.grace_interval().is_empty()) {
        issues.push_back(str_format("%s[%zu]: empty grace overlap", to_string(kind), i));
      }
      if (b.perceptible() && b.window_interval().is_empty()) {
        issues.push_back(
            str_format("%s[%zu]: perceptible entry without window overlap",
                       to_string(kind), i));
      }
      for (const Alarm* a : b.members()) {
        ++seen[a->id().value];
        if (!is_registered(a->id())) {
          issues.push_back("queued alarm not registered: " + a->spec().tag);
        }
        if (a->spec().kind != kind) {
          issues.push_back("alarm in wrong-kind queue: " + a->spec().tag);
        }
      }
    }
  }
  for (const auto& [id, count] : seen) {
    if (count > 1) {
      issues.push_back(str_format("alarm %llu queued %d times",
                                  static_cast<unsigned long long>(id), count));
    }
  }
  const auto& wq = queue(AlarmKind::kWakeup);
  if (!wq.empty()) {
    if (!rtc_.programmed()) {
      // Legal transient: the RTC already fired for the head batch and the
      // wake transition (or the delivery session) is still in flight; the
      // queue drains and the RTC is reprogrammed when it completes.
      if (device_.state() == hw::DeviceState::kAsleep &&
          wq.front()->delivery_time() > sim_.now()) {
        issues.push_back("wakeup queue non-empty but RTC idle");
      }
    } else if (*rtc_.programmed() <
               std::min(wq.front()->delivery_time(), sim_.now())) {
      issues.push_back("RTC programmed before the head's delivery time");
    }
  }
  return issues;
}

void AlarmManager::on_device_wake(hw::WakeReason) {
  // Whatever woke the device, due non-wakeup alarms can now be delivered
  // (§2.1: "postponed to the next time that the device is woken").
  deliver_due(AlarmKind::kNonWakeup);
}

void AlarmManager::save_alarms(snapshot::Writer& w) const {
  w.u64(registered_count_);
  for (const common::ArenaPtr<Registered>& reg : registry_) {
    if (reg->handler) snapshot::write_fields(w, reg->alarm);
  }
}

void AlarmManager::restore_alarms(snapshot::SectionReader& s) {
  const std::uint64_t alarm_count = snapshot::read_count(s);
  for (std::uint64_t i = 0; i < alarm_count; ++i) {
    Alarm alarm = Alarm::restore(s);
    const std::uint64_t id = alarm.id().value;
    SIMTY_CHECK_MSG(id != 0 && id < next_id_,
                    "AlarmManager::restore: alarm id out of range");
    // save() writes rows in id order; row() relies on it.
    SIMTY_CHECK_MSG(registry_.empty() || registry_.back()->alarm.id().value < id,
                    "AlarmManager::restore: duplicate or unordered alarm id");
    registry_.push_back(
        common::make_arena_ptr<Registered>(arena_, std::move(alarm), DeliveryHandler{}));
  }
}

void AlarmManager::save_queue(snapshot::Writer& w, AlarmKind kind) const {
  const auto& q = queue(kind);
  w.u64(q.size());
  for (const common::ArenaPtr<Batch>& batch : q) {
    w.u64(batch->size());
    for (const Alarm* a : batch->members()) w.u64(a->id().value);
  }
}

void AlarmManager::restore_queue(snapshot::SectionReader& s, AlarmKind kind) {
  auto& q = queue_ref(kind);
  std::map<std::uint64_t, int> queued;
  const std::uint64_t batch_count = snapshot::read_count(s);
  for (std::uint64_t b = 0; b < batch_count; ++b) {
    const std::uint64_t member_count = snapshot::read_count(s);
    SIMTY_CHECK_MSG(member_count > 0, "AlarmManager::restore: empty batch");
    common::ArenaPtr<Batch> batch;
    for (std::uint64_t m = 0; m < member_count; ++m) {
      const std::uint64_t id = s.u64();
      // Every restored row is registered: restore() resolves its handler.
      Registered* r = row(AlarmId{id});
      SIMTY_CHECK_MSG(r != nullptr, "AlarmManager::restore: queued alarm not registered");
      Alarm* a = &r->alarm;
      SIMTY_CHECK_MSG(a->spec().kind == kind,
                      "AlarmManager::restore: alarm in wrong-kind queue");
      SIMTY_CHECK_MSG(queued[id]++ == 0, "AlarmManager::restore: alarm queued twice");
      // Entry attributes are order-insensitive monotone folds of current
      // member state (queued members never mutate), so first+add rebuilds
      // the saved entry exactly; no placement decision re-runs.
      if (!batch) {
        batch = make_batch(a);
      } else {
        batch->add(a);
      }
    }
    SIMTY_CHECK_MSG(!batch->grace_interval().is_empty(),
                    "AlarmManager::restore: entry without grace overlap");
    q.push_back(std::move(batch));
  }
  for (std::size_t i = 1; i < q.size(); ++i) {
    SIMTY_CHECK_MSG(q[i - 1]->delivery_time() <= q[i]->delivery_time(),
                    "AlarmManager::restore: queue out of order");
  }
}

void AlarmManager::restore(snapshot::SectionReader& s,
                           const HandlerResolver& resolver) {
  SIMTY_CHECK_MSG(static_cast<bool>(resolver),
                  "AlarmManager::restore: handler resolver required");
  registry_.clear();
  for (BatchQueue& q : queues_) {
    for (common::ArenaPtr<Batch>& batch : q) recycle(std::move(batch));
    q.clear();
  }
  snapshot::read_fields(s, *this);
  SIMTY_CHECK_MSG(next_id_ >= 1, "AlarmManager::restore: bad id counter");
  for (common::ArenaPtr<Registered>& reg : registry_) {
    reg->handler = resolver(reg->alarm.spec().app, reg->alarm.spec().tag);
    SIMTY_CHECK_MSG(static_cast<bool>(reg->handler),
                    "AlarmManager::restore: resolver has no handler for alarm");
  }
  registered_count_ = registry_.size();
  if (nonwakeup_check_) {
    sim_.rebind(*nonwakeup_check_, [this] {
      nonwakeup_check_.reset();
      if (device_.state() == hw::DeviceState::kAwake) {
        deliver_due(AlarmKind::kNonWakeup);
      }
    });
  }
}

std::function<void()> AlarmManager::rtc_handler() {
  return [this] { deliver_due(AlarmKind::kWakeup); };
}

void AlarmManager::apply_grace_factor(double beta) {
  SIMTY_CHECK_MSG(beta >= 0.0 && beta < 1.0, "grace factor must lie in [0, 1)");
  for (common::ArenaPtr<Registered>& reg : registry_) {
    if (!reg->handler) continue;
    Alarm& a = reg->alarm;
    if (a.spec().mode == RepeatMode::kOneShot) continue;
    const Duration grace =
        std::max(a.spec().repeat_interval * beta, a.spec().window_length);
    a.set_grace_length(grace);
  }
  rebatch_all();
}

}  // namespace simty::alarm
