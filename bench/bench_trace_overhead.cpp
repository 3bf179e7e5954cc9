// Microbenchmark of the run tracer's overhead on the event-loop hot path.
//
// The tracer's contract (DESIGN.md §7) is "near-zero when absent, cheap
// when present": the event loop emits a span per fired event through the
// SIMTY_TRACE_* macros, which cost one thread-local load and branch when no
// tracer is installed and one arena append when one is. This bench drives a
// self-rescheduling event chain through the simulator two ways — no tracer
// installed, arena tracer — and prints events/sec for each plus the
// relative slowdown. `--json <path>` writes bench_json.hpp records so CI
// accumulates a trajectory.
//
// Built with -DSIMTY_TRACING=OFF the macros compile to nothing and both
// modes must agree to within noise.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "sim/simulator.hpp"
#include "trace/tracer.hpp"

namespace simty {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kChainEvents = 2'000'000;

// One self-rescheduling chain: each firing schedules the next until the
// countdown hits zero. Captures only `this`, well inside EventFn's inline
// buffer, so the loop allocates nothing and the tracer append dominates
// any per-event delta between modes.
struct Chain {
  sim::Simulator* sim = nullptr;
  std::size_t remaining = 0;

  void fire() {
    if (remaining == 0) return;
    --remaining;
    sim->schedule_after(Duration::micros(10), [this] { fire(); },
                        sim::EventPriority::kApp, "bench-chain");
  }
};

// Runs the chain with `tracer` installed (nullptr = untraced baseline) and
// returns the wall time in ms.
double run_chain(trace::Tracer* tracer) {
  sim::Simulator sim;
  Chain chain{&sim, kChainEvents};
  const trace::TraceScope scope(tracer);
  const auto start = Clock::now();
  sim.schedule_after(Duration::micros(10), [&chain] { chain.fire(); },
                     sim::EventPriority::kApp, "bench-chain");
  sim.run_all();
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace
}  // namespace simty

int main(int argc, char** argv) {
  using namespace simty;

  const auto json_path = bench::json_path_from_args(argc, argv);
  std::vector<bench::BenchRecord> records;
  TextTable t;
  t.set_header({"mode", "wall (ms)", "events/sec", "trace events"});

  struct Mode {
    const char* label;
    double wall_ms = 0.0;
    std::size_t trace_events = 0;
  };
  Mode modes[] = {{"untraced"}, {"arena"}};

  modes[0].wall_ms = run_chain(nullptr);
  {
    trace::Tracer arena;
    modes[1].wall_ms = run_chain(&arena);
    modes[1].trace_events = arena.size();
  }

  for (const Mode& m : modes) {
    const double eps = static_cast<double>(kChainEvents) / (m.wall_ms / 1e3);
    t.add_row({m.label, str_format("%.1f", m.wall_ms), str_format("%.0f", eps),
               str_format("%zu", m.trace_events)});
    records.push_back({std::string("trace-overhead/") + m.label, m.wall_ms, eps});
  }

  std::printf("Trace overhead: 2e6-event chain through the simulator\n");
  std::printf("%s\n", t.render().c_str());
  std::printf("arena slowdown vs untraced: %.2fx\n",
              modes[1].wall_ms / modes[0].wall_ms);
#if defined(SIMTY_TRACE_DISABLED)
  std::printf("(built with SIMTY_TRACING=OFF: both modes are the untraced path)\n");
#endif

  if (json_path) {
    if (!bench::write_bench_json(*json_path, records)) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path->c_str());
      return 1;
    }
    std::printf("wrote %zu records to %s\n", records.size(), json_path->c_str());
  }
  return 0;
}
