// Allocation gate for the discrete-event hot path and the alarm-delivery
// path above it.
//
// A counting global operator new proves the "zero steady-state heap
// allocations" claim instead of asserting it in comments: once the queue's
// slab and heap have grown to their working size, a schedule/cancel/pop
// mix and the simulator's per-event step loop
// (the inner loop of a fleet shard's device run) must perform no heap
// allocation at all. The gate runs in its own test binary so the operator
// new replacement cannot distort other suites.
//
// Scope: the event core (EventQueue, Simulator::step), the framework stack's
// steady-state delivery path (alarm delivery, RTC wake, device state
// changes, wakelocks, the default metrics observers), whole exp::Run
// experiments, and whole fleet shards. Without an arena a run still
// allocates where it registers alarms — each registration owns one
// registry row (its Alarm and handler) and, for tags over 15 chars, the
// tag — and where run-length tables grow geometrically, so the run-level
// gate budgets allocations per registration and none per delivery, wake or
// state change. With the shard arena (fleet::run_fleet) a device's per-run
// state is carved from retained blocks, assembly and finish() included, so
// the fleet-shard gate budgets allocations per device.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>

#include "alarm/alarm_manager.hpp"
#include "alarm/native_policy.hpp"
#include "alarm/simty_policy.hpp"
#include "common/arena.hpp"
#include "common/rng.hpp"
#include "exp/run.hpp"
#include "fleet/fleet_runner.hpp"
#include "hw/device.hpp"
#include "hw/power_bus.hpp"
#include "hw/power_model.hpp"
#include "hw/rtc.hpp"
#include "hw/wakelock.hpp"
#include "metrics/delay_stats.hpp"
#include "metrics/wakeup_breakdown.hpp"
#include "power/energy_accounting.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// Counting replacements for every operator new/delete form the toolchain
// emits. Only the allocation count is tracked; behavior is malloc/free.
// GCC flags free() in a delete that it inlines next to a visible new; the
// pairing is correct here because both sides are these replacements.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace simty::sim {
namespace {

std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

// Mixed schedule/cancel/pop churn, sized to stay
// within `window` pending events. Exercises every hot-path operation the
// gate covers; callbacks capture one pointer (trivially relocatable).
template <typename Queue>
void churn(Queue& q, Rng& rng, std::uint64_t* sink, std::size_t rounds) {
  std::int64_t now_us = 0;
  EventId last{};
  for (std::size_t i = 0; i < rounds; ++i) {
    const std::int64_t when = now_us + 1 + static_cast<std::int64_t>(rng.next_below(1000));
    last = q.schedule(TimePoint::from_us(when),
                      static_cast<EventPriority>(rng.next_below(4)),
                      [sink] { ++*sink; }, "gate");
    if (i % 7 == 0) q.cancel(last);
    if (i % 3 == 0 && !q.empty()) {
      auto fired = q.pop();
      fired.callback();
      now_us = fired.when.us();
    }
  }
  while (!q.empty()) {
    auto fired = q.pop();
    fired.callback();
  }
}

TEST(AllocGateTest, WarmedEventQueueChurnsWithZeroAllocations) {
  EventQueue q;
  Rng rng(42);
  std::uint64_t sink = 0;
  // Warm-up grows the slab, heap array and bitset words to steady-state
  // capacity.
  churn(q, rng, &sink, 20'000);

  const std::uint64_t before = alloc_count();
  churn(q, rng, &sink, 20'000);
  EXPECT_EQ(alloc_count() - before, 0u)
      << "steady-state schedule/cancel/pop must not allocate";
  EXPECT_GT(sink, 0u);
}

TEST(AllocGateTest, ArenaBackedQueueChurnsWithZeroAllocationsAndZeroArenaGrowth) {
  common::Arena arena;
  std::uint64_t sink = 0;
  {
    EventQueue q(&arena);
    Rng rng(42);
    churn(q, rng, &sink, 20'000);

    const std::uint64_t before = alloc_count();
    const std::uint64_t blocks_before = arena.stats().block_allocs;
    churn(q, rng, &sink, 20'000);
    EXPECT_EQ(alloc_count() - before, 0u);
    EXPECT_EQ(arena.stats().block_allocs, blocks_before)
        << "warmed arena must not grow in steady state";
  }
  // The fleet shard pattern: reset and rebuild on the same arena. The
  // second life must reuse the retained blocks, not allocate new ones.
  arena.reset();
  const std::uint64_t blocks_before = arena.stats().block_allocs;
  {
    EventQueue q(&arena);
    Rng rng(42);
    churn(q, rng, &sink, 20'000);
  }
  EXPECT_EQ(arena.stats().block_allocs, blocks_before)
      << "arena reset must rewind, not free, its blocks";
}

TEST(AllocGateTest, WarmedSimulatorStepLoopRunsWithZeroAllocations) {
  // The inner loop of a fleet shard's device run: step() pops and invokes
  // one event; live device models reschedule themselves from inside
  // callbacks. A self-rescheduling ladder reproduces that shape.
  common::Arena arena;
  Simulator sim(&arena);
  std::uint64_t fired = 0;

  struct Ladder {
    Simulator* sim;
    std::uint64_t* fired;
    std::uint32_t remaining;
    void operator()() {
      ++*fired;
      if (remaining > 0) {
        sim->schedule_after(Duration::micros(100), Ladder{sim, fired, remaining - 1},
                            EventPriority::kFramework, "ladder");
      }
    }
  };
  for (int lane = 0; lane < 8; ++lane) {
    sim.schedule_after(Duration::micros(lane), Ladder{&sim, &fired, 2'000});
  }
  // Warm: run half the ladder.
  for (int i = 0; i < 5'000; ++i) ASSERT_TRUE(sim.step());

  const std::uint64_t before = alloc_count();
  std::uint64_t steps = 0;
  while (sim.step()) ++steps;
  EXPECT_EQ(alloc_count() - before, 0u)
      << "steady-state Simulator::step must not allocate";
  EXPECT_GT(steps, 5'000u);
  EXPECT_EQ(fired, 8u * 2'001u);
}

// ---------------------------------------------------------------------------
// Delivery path: a fixed set of repeating alarms on the full framework stack.
// With no registration after warm-up, every delivery, RTC wake and device
// state change must run on retained buffers and recycled batches.
// ---------------------------------------------------------------------------

class DeliveryAllocGateTest : public ::testing::TestWithParam<bool> {};

TEST_P(DeliveryAllocGateTest, SteadyStateDeliveriesWakesAndStateChangesAllocateNothing) {
  const bool simty = GetParam();
  const hw::PowerModel model = hw::PowerModel::nexus5();
  Simulator sim;
  hw::PowerBus bus;
  power::EnergyAccountant accountant;
  bus.add_listener(&accountant);
  hw::Device device(sim, model, bus);
  hw::Rtc rtc(sim, device);
  hw::WakelockManager wakelocks(sim, model, bus);
  std::unique_ptr<alarm::AlignmentPolicy> policy;
  if (simty) {
    policy = std::make_unique<alarm::SimtyPolicy>();
  } else {
    policy = std::make_unique<alarm::NativePolicy>();
  }
  alarm::AlarmManager manager(sim, device, rtc, wakelocks, std::move(policy));
  // The default Run observers, plus a session observer so the session
  // record is built.
  metrics::DelayStats delays;
  metrics::WakeupAccounting accounting;
  manager.add_delivery_observer(delays.observer());
  manager.add_delivery_observer(accounting.observer());
  std::uint64_t session_items = 0;
  manager.add_session_observer([&session_items](const alarm::SessionRecord& s) {
    session_items += s.items.size();
  });

  // Tags longer than the 15-char small-string buffer: a copied tag would
  // allocate on every delivery.
  struct Spec {
    const char* tag;
    alarm::RepeatMode mode;
    std::int64_t repeat_s;
    double alpha;
    hw::ComponentSet hardware;
    std::int64_t hold_ms;
  };
  const Spec specs[] = {
      {"com.example.messenger.sync", alarm::RepeatMode::kDynamic, 200, 0.75,
       hw::ComponentSet{hw::Component::kWifi}, 2500},
      {"com.example.location.fix", alarm::RepeatMode::kStatic, 300, 0.75,
       hw::ComponentSet{hw::Component::kWps}, 10000},
      {"com.example.steps.sample", alarm::RepeatMode::kStatic, 90, 0.75,
       hw::ComponentSet{hw::Component::kAccelerometer}, 3000},
      {"com.example.alarm.clock.ring", alarm::RepeatMode::kStatic, 1800, 0.0,
       hw::ComponentSet{hw::Component::kSpeaker, hw::Component::kVibrator,
                        hw::Component::kScreen},
       1000},
      {"com.example.feed.refresh", alarm::RepeatMode::kDynamic, 600, 0.75,
       hw::ComponentSet{hw::Component::kWifi, hw::Component::kCellular}, 2000},
  };
  std::uint32_t app = 1;
  for (const Spec& s : specs) {
    const Duration hold = Duration::millis(s.hold_ms);
    const hw::ComponentSet hardware = s.hardware;
    manager.register_alarm(
        alarm::AlarmSpec::repeating(s.tag, alarm::AppId{app++}, s.mode,
                                    Duration::seconds(s.repeat_s), s.alpha, 0.9),
        TimePoint::origin() + Duration::seconds(s.repeat_s),
        [hardware, hold](const alarm::Alarm&, TimePoint) {
          return alarm::TaskSpec{hardware, hold};
        });
  }

  // Warm-up grows every retained buffer and the spare-batch list.
  sim.run_until(TimePoint::origin() + Duration::hours(6));

  const alarm::AlarmManager::Stats before = manager.stats();
  const std::uint64_t wakeups_before = device.wakeup_count();
  const std::uint64_t allocs_before = alloc_count();
  sim.run_until(TimePoint::origin() + Duration::hours(18));
  const std::uint64_t allocs = alloc_count() - allocs_before;

  const std::uint64_t deliveries = manager.stats().deliveries - before.deliveries;
  const std::uint64_t wakeups = device.wakeup_count() - wakeups_before;
  EXPECT_EQ(manager.stats().registrations, before.registrations);
  EXPECT_GT(deliveries, 500u);
  EXPECT_GT(wakeups, 100u);
  EXPECT_GT(session_items, 0u);
  EXPECT_EQ(allocs, 0u) << "over " << deliveries << " deliveries and " << wakeups
                        << " wakes";
  EXPECT_TRUE(manager.check_invariants().empty());
}

INSTANTIATE_TEST_SUITE_P(Policies, DeliveryAllocGateTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return std::string(p.param ? "Simty" : "Native");
                         });

// ---------------------------------------------------------------------------
// Whole runs: the paper protocol's exp::Run (3 h, system alarms on). After a
// 1 h warm-up the remaining 2 h may allocate only for alarm registrations.
// ---------------------------------------------------------------------------

// Measured allocations per registration (light and heavy, NATIVE and SIMTY,
// seed 1, no arena): 2.07-2.16. Each registration allocates its registry
// row (the Alarm and its handler) and, for tags over 15 chars such as
// "system.oneshot.N", the tag string; the remainder is amortized growth
// (the registry table, batch member buffers). K = 3 keeps at least 10%
// headroom and no budget for deliveries, wakes or state changes: one
// allocation per delivery would exceed it on its own (see the sanity check
// below).
constexpr std::uint64_t kAllocsPerRegistration = 3;

struct RunCase {
  exp::WorkloadKind workload;
  exp::PolicyKind policy;
  const char* name;
};

void PrintTo(const RunCase& c, std::ostream* os) { *os << c.name; }

class RunAllocGateTest : public ::testing::TestWithParam<RunCase> {};

TEST_P(RunAllocGateTest, SteadyStateAllocatesOnlyForRegistrations) {
  exp::ExperimentConfig config;
  config.workload = GetParam().workload;
  config.policy = GetParam().policy;
  config.seed = 1;
  config.duration = Duration::hours(3);
  config.system_alarms = true;
  exp::Run run(config);
  run.simulator().run_until(TimePoint::origin() + Duration::hours(1));

  const alarm::AlarmManager::Stats before = run.alarm_manager().stats();
  const std::uint64_t wakeups_before = run.device().wakeup_count();
  const std::uint64_t allocs_before = alloc_count();
  run.simulator().run_until(run.horizon());
  const std::uint64_t allocs = alloc_count() - allocs_before;

  const alarm::AlarmManager::Stats& after = run.alarm_manager().stats();
  const std::uint64_t registrations = after.registrations - before.registrations;
  const std::uint64_t deliveries = after.deliveries - before.deliveries;
  const std::uint64_t wakeups = run.device().wakeup_count() - wakeups_before;
  const std::uint64_t budget = kAllocsPerRegistration * registrations;
  EXPECT_GT(registrations, 0u);
  // The gate only bites if the window's deliveries alone outnumber the
  // budget.
  EXPECT_GT(deliveries, budget);
  EXPECT_LE(allocs, budget) << allocs << " allocations for " << registrations
                            << " registrations, " << deliveries << " deliveries and "
                            << wakeups << " wakes";
  run.finish();
}

INSTANTIATE_TEST_SUITE_P(
    PaperProtocol, RunAllocGateTest,
    ::testing::Values(
        RunCase{exp::WorkloadKind::kLight, exp::PolicyKind::kNative, "LightNative"},
        RunCase{exp::WorkloadKind::kLight, exp::PolicyKind::kSimty, "LightSimty"},
        RunCase{exp::WorkloadKind::kHeavy, exp::PolicyKind::kNative, "HeavyNative"},
        RunCase{exp::WorkloadKind::kHeavy, exp::PolicyKind::kSimty, "HeavySimty"}),
    [](const ::testing::TestParamInfo<RunCase>& p) { return std::string(p.param.name); });

// ---------------------------------------------------------------------------
// Fleet shards: fleet::run_fleet runs each shard's devices back to back on
// one arena, reset between devices. Once the arena is warm, a device's
// stack assembly, event loop and finish() should barely touch the heap.
// ---------------------------------------------------------------------------

// Measured allocations per device (default cohorts at 3-minute standby, as
// bench/e2e's fleet-3min, SIMTY, one warmed shard per cohort): 7.6.
// What remains is outside the arena's reach: the sampled catalog and its
// index permutation, the delay histogram, the doze schedule, tags over 15
// chars, and the result's wakeup rows. K = 10 keeps the headroom of the
// gates above; the pre-arena path made ~81.
constexpr std::uint64_t kAllocsPerFleetDevice = 10;

TEST(AllocGateTest, WarmedFleetShardStaysWithinPerDeviceBudget) {
  fleet::FleetConfig config;
  config.cohorts = fleet::default_cohorts();
  for (fleet::CohortSpec& c : config.cohorts) c.standby = Duration::minutes(3);
  config.policy = exp::PolicyKind::kSimty;
  config.devices = 1200;
  config.shard_devices = config.devices;  // one shard, one arena per cohort
  config.jobs = 1;
  // The first fleet warms process-wide state (the catalog table, the
  // default cohorts); the arena itself warms on each shard's first device.
  fleet::run_fleet(config);

  const std::uint64_t allocs_before = alloc_count();
  const fleet::FleetResult result = fleet::run_fleet(config);
  const std::uint64_t allocs = alloc_count() - allocs_before;

  EXPECT_EQ(result.overall.devices, config.devices);
  EXPECT_LE(allocs, kAllocsPerFleetDevice * config.devices)
      << static_cast<double>(allocs) / static_cast<double>(config.devices)
      << " allocations per device";
}

TEST(AllocGateTest, CountingHookSeesOrdinaryAllocations) {
  // Self-test: the gate is meaningless if the hook is not actually
  // counting. (A unique_ptr would be tidier but its deleter runs after the
  // measurement; a raw pair keeps the window explicit.)
  const std::uint64_t before = alloc_count();
  int* p = new int(7);
  EXPECT_GT(alloc_count(), before);
  delete p;
}

}  // namespace
}  // namespace simty::sim
