// Microbenchmark of the discrete-event core and of alarm selection.
//
//   churn-pop   — steady-state schedule/pop churn on the production
//                 sim::EventQueue, carved from an arena as a run's queue
//                 is, at 16 pending events: the depth a paper or paging run
//                 keeps (DESIGN.md §9 has the measured depths; peak 19).
//   alarm-rebatch — AlarmManager queue maintenance under NATIVE and SIMTY,
//                 the per-insert selection cost of EXPERIMENTS A5.
//
// `--json <path>` writes the same rows as {name, wall_ms, events_per_sec}
// records (see bench_json.hpp), a per-commit trajectory that CI uploads.
// End-to-end gates live in bench/e2e.

#include <chrono>
#include <cstdint>
#include <cstdio>
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
#include "sim/event_queue.hpp"

namespace simty {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

constexpr std::size_t kChurnEvents = 1'000'000;
constexpr std::size_t kChurnDepth = 16;

// Keeps kChurnDepth events pending: pops the earliest and schedules a
// replacement, kChurnEvents times. `sink` accumulates into a volatile so
// the callbacks cannot be optimized out; the prefill is not timed.
double churn_pop() {
  common::Arena arena;
  sim::EventQueue q(&arena);
  Rng rng(1234);
  volatile std::uint64_t sink = 0;
  const auto schedule = [&](std::int64_t when_us) {
    q.schedule(TimePoint::from_us(when_us),
               static_cast<sim::EventPriority>(rng.next_below(4)),
               [&sink] { sink = sink + 1; }, "churn");
  };
  for (std::size_t i = 0; i < kChurnDepth; ++i) {
    schedule(static_cast<std::int64_t>(rng.next_below(60'000'000)));
  }
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kChurnEvents; ++i) {
    auto fired = q.pop();
    fired.callback();
    schedule(fired.when.us() + 1 + static_cast<std::int64_t>(rng.next_below(60'000'000)));
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
  };

  record("churn-pop", "depth-16", churn_pop(), static_cast<double>(kChurnEvents));
  const AlarmChurnResult native = churn_alarm_queue(std::make_unique<alarm::NativePolicy>());
  record("alarm-rebatch", "NATIVE", native.wall_ms, static_cast<double>(native.inserts));
  const AlarmChurnResult simty_r = churn_alarm_queue(std::make_unique<alarm::SimtyPolicy>());
  record("alarm-rebatch", "SIMTY", simty_r.wall_ms, static_cast<double>(simty_r.inserts));

  std::printf("Core micro: event queue churn and alarm selection\n");
  std::printf("%s\n", t.render().c_str());

  if (json_path) {
    if (!bench::write_bench_json(*json_path, records)) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path->c_str());
      return 1;
    }
    std::printf("wrote %zu records to %s\n", records.size(), json_path->c_str());
  }
  return 0;
}
