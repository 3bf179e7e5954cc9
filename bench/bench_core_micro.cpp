// Microbenchmark of the discrete-event core hot path.
//
// Three implementations run the same churn workloads:
//   soa  — the production sim::EventQueue (struct-of-arrays 4-ary heap:
//          dense 16-byte keys with the payload slot packed into the order
//          word, armed-bitset tombstone pruning).
//   aos  — bench/reference_event_queue.hpp, the pre-SoA queue retained
//          verbatim (interleaved heap items, armed flag inside the fat
//          slot record, indirect-call EventFn moves). Same machine, same
//          compiler: the soa/aos ratio is the PR's speedup, and CI gates
//          it absolutely.
//   map  — the original std::map queue (node allocation per event,
//          std::function callback, std::string label), kept for scale.
//
// The churn legs run two regimes. The deep legs (churn-pop, churn-cancel,
// burst-pop) keep ~1M events pending — the aggregate fleet population (10k
// devices x ~100 pending alarms/timers each) that bench_fleet_scale pushes
// through per tick — where every sift level is a dependent cache miss and
// the dense-key layout pays: one 64-byte line per sibling group, prefetched
// a level ahead, versus two-plus unprefetched lines plus a fat-slab touch
// for the aos baseline. The shallow leg (shallow-pop, 4k pending) is the
// single-device regime where both heaps sit in L2 and layout is nearly
// irrelevant; it is tracked to prove the SoA rewrite did not regress the
// cache-resident path, not to show a win.
//
// `--json <path>` writes BENCH_core.json-style records (see bench_json.hpp);
// `speedup/*` records carry the soa-vs-aos ratio in the events_per_sec
// field so tools/check_bench_baseline.sh can diff them against
// bench/BENCH_core_micro.json.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alarm/alarm_manager.hpp"
#include "alarm/native_policy.hpp"
#include "alarm/simty_policy.hpp"
#include "bench_json.hpp"
#include "common/arena.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "hw/power_bus.hpp"
#include "hw/power_model.hpp"
#include "reference_event_queue.hpp"
#include "sim/event_queue.hpp"

namespace simty {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// The original event queue, kept as the scale baseline: one map node
// allocation per event, type-erased heap-allocating callback, owned label
// string, and a second map for cancellation.
class MapQueue {
 public:
  using Callback = std::function<void()>;

  std::uint64_t schedule(TimePoint when, int priority, Callback cb,
                         std::string label = "") {
    const Key key{when.us(), priority, next_seq_++};
    events_.emplace(key, Entry{std::move(cb), std::move(label), key.seq});
    index_.emplace(key.seq, key);
    return key.seq;
  }

  bool cancel(std::uint64_t id) {
    const auto it = index_.find(id);
    if (it == index_.end()) return false;
    events_.erase(it->second);
    index_.erase(it);
    return true;
  }

  bool empty() const { return events_.empty(); }

  struct Fired {
    TimePoint when;
    Callback callback;
    std::string label;
  };
  Fired pop() {
    auto it = events_.begin();
    Fired fired{TimePoint::from_us(it->first.when_us), std::move(it->second.callback),
                std::move(it->second.label)};
    index_.erase(it->second.id);
    events_.erase(it);
    return fired;
  }

 private:
  struct Key {
    std::int64_t when_us;
    int priority;
    std::uint64_t seq;
    auto operator<=>(const Key&) const = default;
  };
  struct Entry {
    Callback callback;
    std::string label;
    std::uint64_t id;
  };
  std::map<Key, Entry> events_;
  std::map<std::uint64_t, Key> index_;
  std::uint64_t next_seq_ = 1;
};

constexpr std::size_t kChurnEvents = 1'000'000;
constexpr std::size_t kDeepWindow = 1u << 20;    // fleet-aggregate population
constexpr std::size_t kShallowWindow = 4'096;    // single-device population

// Steady-state schedule/pop churn: keep `window` events pending, pop the
// earliest and schedule a replacement, kChurnEvents times. `sink`
// accumulates into a volatile so the callbacks cannot be optimized out.
// The prefill is outside the timed region: the legs measure steady-state
// churn at depth, not heap growth.
template <typename Schedule, typename Pop>
double churn_schedule_pop(std::size_t window, Schedule schedule, Pop pop) {
  Rng rng(1234);
  volatile std::uint64_t sink = 0;
  std::int64_t now_us = 0;
  for (std::size_t i = 0; i < window; ++i) {
    schedule(TimePoint::from_us(now_us + rng.next_below(60'000'000)),
             static_cast<int>(rng.next_below(4)), [&sink] { sink = sink + 1; });
  }
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kChurnEvents; ++i) {
    auto fired = pop();
    fired.callback();
    now_us = fired.when.us();
    schedule(TimePoint::from_us(now_us + 1 + rng.next_below(60'000'000)),
             static_cast<int>(rng.next_below(4)), [&sink] { sink = sink + 1; });
  }
  return ms_since(start);
}

// Schedule/cancel churn against a deep pending window: `window` long-lived
// events keep the heap at fleet-aggregate depth while each round schedules
// two near-term events, cancels one of the two, and pops one — the
// tombstone/prune path under load vs. map erase. Every near-term schedule
// sifts up through the full depth past the far-future backlog.
template <typename Schedule, typename Cancel, typename Pop>
double churn_schedule_cancel(std::size_t window, Schedule schedule, Cancel cancel,
                             Pop pop) {
  Rng rng(99);
  volatile std::uint64_t sink = 0;
  std::int64_t now_us = 0;
  for (std::size_t i = 0; i < window; ++i) {
    schedule(TimePoint::from_us(now_us + 2'000'000 + rng.next_below(600'000'000)), 1,
             [&sink] { sink = sink + 1; });
  }
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kChurnEvents / 2; ++i) {
    const auto keep = schedule(TimePoint::from_us(now_us + 1 + rng.next_below(1'000'000)),
                               1, [&sink] { sink = sink + 1; });
    const auto victim = schedule(
        TimePoint::from_us(now_us + 1 + rng.next_below(1'000'000)), 1,
        [&sink] { sink = sink + 1; });
    // Cancel one of the pair (alternating which) and pop the earliest.
    cancel(i % 2 == 0 ? victim : keep);
    auto fired = pop();
    fired.callback();
    now_us = fired.when.us();
  }
  return ms_since(start);
}

constexpr std::size_t kBurstSize = 64;
constexpr std::size_t kBurstRounds = 8'192;       // ~524k events total
constexpr std::size_t kBurstBackground = 1u << 16;  // far-future pending depth

// Same-instant burst churn over a deep backlog: kBurstBackground far-future
// events hold the heap at depth, then every round schedules kBurstSize
// events sharing one (time, priority) firing group and drains them all
// with plain pops. Both queues pay a full-depth sift-down per event; the
// soa queue's dense keys and prefetched sibling lines make each one
// cheaper.
template <typename Schedule, typename Drain>
double churn_burst(Schedule schedule, Drain drain) {
  Rng rng(4321);
  volatile std::uint64_t sink = 0;
  std::int64_t now_us = 0;
  for (std::size_t i = 0; i < kBurstBackground; ++i) {
    // 600s+ out: the burst rounds advance `now` ~8s total, so no
    // background event ever fires during the leg.
    schedule(TimePoint::from_us(600'000'000 +
                                static_cast<std::int64_t>(rng.next_below(600'000'000))),
             1, [&sink] { sink = sink + 1; });
  }
  const auto start = Clock::now();
  for (std::size_t r = 0; r < kBurstRounds; ++r) {
    now_us += 1 + static_cast<std::int64_t>(rng.next_below(1'000'000));
    for (std::size_t i = 0; i < kBurstSize; ++i) {
      schedule(TimePoint::from_us(now_us), 1, [&sink] { sink = sink + 1; });
    }
    drain(kBurstSize);
  }
  return ms_since(start);
}

struct AlarmChurnResult {
  double wall_ms = 0.0;
  std::uint64_t inserts = 0;
};

// AlarmManager queue maintenance churn: register a standby-day's worth of
// repeating alarms, then rebatch the whole queue repeatedly (the policy
// swap / realignment path). Every registration and every rebatched alarm
// exercises one incremental insert.
AlarmChurnResult churn_alarm_queue(std::unique_ptr<alarm::AlignmentPolicy> policy) {
  constexpr int kAlarms = 600;
  constexpr int kRebatches = 20;

  sim::Simulator sim;
  hw::PowerModel model = hw::PowerModel::nexus5();
  hw::PowerBus bus;
  hw::Device device(sim, model, bus);
  hw::Rtc rtc(sim, device);
  hw::WakelockManager wakelocks(sim, model, bus);
  alarm::AlarmManager manager(sim, device, rtc, wakelocks, std::move(policy));

  Rng rng(7);
  const auto start = Clock::now();
  for (int i = 0; i < kAlarms; ++i) {
    const Duration repeat = Duration::seconds(60 * (1 + static_cast<int>(rng.next_below(60))));
    alarm::AlarmSpec spec = alarm::AlarmSpec::repeating(
        "bench.alarm." + std::to_string(i), alarm::AppId{static_cast<std::uint32_t>(i % 32)},
        alarm::RepeatMode::kStatic, repeat, 0.1, 0.5);
    manager.register_alarm(spec,
                           TimePoint::origin() + Duration::seconds(rng.next_below(3600)),
                           [](const alarm::Alarm&, TimePoint) { return alarm::TaskSpec{}; });
  }
  for (int r = 0; r < kRebatches; ++r) manager.rebatch_all();
  AlarmChurnResult out;
  out.wall_ms = ms_since(start);
  out.inserts = static_cast<std::uint64_t>(kAlarms) * (1 + kRebatches);
  return out;
}

// The soa legs run the queue exactly as a fleet shard does: carved from a
// per-shard bump arena (hugepage-advised blocks, O(1) reset between runs).
double run_pop_leg_soa(std::size_t window) {
  common::Arena arena;
  sim::EventQueue q(&arena);
  return churn_schedule_pop(
      window,
      [&](TimePoint when, int pri, auto cb) {
        q.schedule(when, static_cast<sim::EventPriority>(pri), std::move(cb), "churn");
      },
      [&] { return q.pop(); });
}

double run_pop_leg_aos(std::size_t window) {
  bench::ReferenceEventQueue q;
  return churn_schedule_pop(
      window,
      [&](TimePoint when, int pri, auto cb) {
        q.schedule(when, static_cast<sim::EventPriority>(pri), std::move(cb), "churn");
      },
      [&] { return q.pop(); });
}

double run_pop_leg_map(std::size_t window) {
  MapQueue q;
  return churn_schedule_pop(
      window,
      [&](TimePoint when, int pri, auto cb) { q.schedule(when, pri, std::move(cb), "churn"); },
      [&] { return q.pop(); });
}

double run_cancel_leg_soa(std::size_t window) {
  common::Arena arena;
  sim::EventQueue q(&arena);
  return churn_schedule_cancel(
      window,
      [&](TimePoint when, int pri, auto cb) {
        return q.schedule(when, static_cast<sim::EventPriority>(pri), std::move(cb), "churn");
      },
      [&](sim::EventId id) { return q.cancel(id); }, [&] { return q.pop(); });
}

double run_cancel_leg_aos(std::size_t window) {
  bench::ReferenceEventQueue q;
  return churn_schedule_cancel(
      window,
      [&](TimePoint when, int pri, auto cb) {
        return q.schedule(when, static_cast<sim::EventPriority>(pri), std::move(cb), "churn");
      },
      [&](sim::EventId id) { return q.cancel(id); }, [&] { return q.pop(); });
}

double run_burst_leg_soa() {
  common::Arena arena;
  sim::EventQueue q(&arena);
  return churn_burst(
      [&](TimePoint when, int pri, auto cb) {
        q.schedule(when, static_cast<sim::EventPriority>(pri), std::move(cb), "burst");
      },
      [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          auto fired = q.pop();
          fired.callback();
        }
      });
}

double run_burst_leg_aos() {
  bench::ReferenceEventQueue q;
  return churn_burst(
      [&](TimePoint when, int pri, auto cb) {
        q.schedule(when, static_cast<sim::EventPriority>(pri), std::move(cb), "burst");
      },
      [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          auto fired = q.pop();
          fired.callback();
        }
      });
}

}  // namespace
}  // namespace simty

int main(int argc, char** argv) {
  using namespace simty;

  const auto json_path = bench::json_path_from_args(argc, argv);
  std::vector<bench::BenchRecord> records;
  TextTable t;
  t.set_header({"workload", "impl", "wall (ms)", "events/sec"});

  const auto record = [&](const std::string& workload, const std::string& impl,
                          double wall_ms, double events) {
    const double eps = events / (wall_ms / 1e3);
    t.add_row({workload, impl, str_format("%.1f", wall_ms), str_format("%.0f", eps)});
    records.push_back({workload + "/" + impl, wall_ms, eps});
    return eps;
  };
  // speedup/* records put the ratio in the events_per_sec field — it is
  // machine-independent (same box, same compiler, both sides measured in
  // the same process), so the checked-in baseline can gate it absolutely.
  const auto record_speedup = [&](const std::string& workload, double soa_ms,
                                  double aos_ms) {
    const double ratio = aos_ms / soa_ms;
    t.add_row({"speedup/" + workload, "aos/soa", str_format("%.1f", soa_ms + aos_ms),
               str_format("%.2f", ratio)});
    records.push_back({"speedup/" + workload, soa_ms + aos_ms, ratio});
    return ratio;
  };

  // -- deep schedule/pop churn (fleet-aggregate population) ------------------
  const double pop_soa = run_pop_leg_soa(kDeepWindow);
  const double pop_aos = run_pop_leg_aos(kDeepWindow);
  record("churn-pop", "soa", pop_soa, static_cast<double>(kChurnEvents));
  record("churn-pop", "aos", pop_aos, static_cast<double>(kChurnEvents));
  const double pop_speedup = record_speedup("churn-pop", pop_soa, pop_aos);

  // -- deep schedule/cancel churn --------------------------------------------
  const double cancel_soa = run_cancel_leg_soa(kDeepWindow);
  const double cancel_aos = run_cancel_leg_aos(kDeepWindow);
  record("churn-cancel", "soa", cancel_soa, static_cast<double>(kChurnEvents));
  record("churn-cancel", "aos", cancel_aos, static_cast<double>(kChurnEvents));
  const double cancel_speedup = record_speedup("churn-cancel", cancel_soa, cancel_aos);

  // -- same-instant burst churn over a deep backlog --------------------------
  const double burst_events = static_cast<double>(kBurstSize * kBurstRounds);
  const double burst_soa = run_burst_leg_soa();
  const double burst_aos = run_burst_leg_aos();
  record("burst-pop", "soa", burst_soa, burst_events);
  record("burst-pop", "aos", burst_aos, burst_events);
  const double burst_speedup = record_speedup("burst-pop", burst_soa, burst_aos);

  // -- shallow schedule/pop churn (single-device population) -----------------
  const double shallow_soa = run_pop_leg_soa(kShallowWindow);
  const double shallow_aos = run_pop_leg_aos(kShallowWindow);
  const double shallow_map = run_pop_leg_map(kShallowWindow);
  record("shallow-pop", "soa", shallow_soa, static_cast<double>(kChurnEvents));
  record("shallow-pop", "aos", shallow_aos, static_cast<double>(kChurnEvents));
  record("shallow-pop", "map", shallow_map, static_cast<double>(kChurnEvents));
  const double shallow_speedup = record_speedup("shallow-pop", shallow_soa, shallow_aos);

  // -- alarm queue maintenance churn ----------------------------------------
  {
    const AlarmChurnResult native = churn_alarm_queue(std::make_unique<alarm::NativePolicy>());
    record("alarm-rebatch", "NATIVE", native.wall_ms, static_cast<double>(native.inserts));
    const AlarmChurnResult simty_r = churn_alarm_queue(std::make_unique<alarm::SimtyPolicy>());
    record("alarm-rebatch", "SIMTY", simty_r.wall_ms, static_cast<double>(simty_r.inserts));
  }

  std::printf("Core micro: discrete-event hot path (1e6-event churn)\n");
  std::printf("%s\n", t.render().c_str());
  std::printf("churn-pop speedup (soa vs aos, deep): %.2fx\n", pop_speedup);
  std::printf("churn-cancel speedup (soa vs aos, deep): %.2fx\n", cancel_speedup);
  std::printf("burst-pop speedup (soa vs aos): %.2fx\n", burst_speedup);
  std::printf("shallow-pop speedup (soa vs aos): %.2fx\n", shallow_speedup);

  if (json_path) {
    if (!bench::write_bench_json(*json_path, records)) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path->c_str());
      return 1;
    }
    std::printf("wrote %zu records to %s\n", records.size(), json_path->c_str());
  }
  return 0;
}
