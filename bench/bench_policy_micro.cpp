// Ablation A5: micro-costs of the alignment policies (google-benchmark).
// §2.1 notes realignment trades "slight computation overhead" for fewer
// wakeups; this quantifies policy selection cost against queue depth, the
// end-to-end cost of a full 3-hour standby simulation, and the similarity
// primitives themselves.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "alarm/duration_policy.hpp"
#include "alarm/exact_policy.hpp"
#include "alarm/native_policy.hpp"
#include "alarm/simty_policy.hpp"
#include "common/rng.hpp"
#include "exp/experiment.hpp"

using namespace simty;

namespace {

TimePoint at(std::int64_t s) { return TimePoint::origin() + Duration::seconds(s); }

/// Builds a queue of `n` single-alarm entries with randomized attributes.
struct QueueFixture {
  std::vector<std::unique_ptr<alarm::Alarm>> alarms;
  alarm::BatchQueue queue;
  std::unique_ptr<alarm::Alarm> probe;

  explicit QueueFixture(std::size_t n) {
    Rng rng(n * 7919 + 1);
    const hw::ComponentSet sets[] = {
        hw::ComponentSet{hw::Component::kWifi},
        hw::ComponentSet{hw::Component::kWps},
        hw::ComponentSet{hw::Component::kAccelerometer},
        hw::ComponentSet{hw::Component::kWifi, hw::Component::kCellular},
    };
    for (std::size_t i = 0; i < n; ++i) {
      auto a = std::make_unique<alarm::Alarm>(
          alarm::AlarmId{i + 1},
          alarm::AlarmSpec::repeating("a" + std::to_string(i), alarm::AppId{1},
                                      alarm::RepeatMode::kStatic,
                                      Duration::seconds(600),
                                      rng.chance(0.5) ? 0.75 : 0.0, 0.96),
          at(static_cast<std::int64_t>(rng.next_below(600))));
      a->record_delivery(sets[rng.next_below(4)], Duration::seconds(2));
      queue.push_back(std::make_unique<alarm::Batch>(a.get()));
      alarms.push_back(std::move(a));
    }
    probe = std::make_unique<alarm::Alarm>(
        alarm::AlarmId{n + 1},
        alarm::AlarmSpec::repeating("probe", alarm::AppId{2},
                                    alarm::RepeatMode::kStatic,
                                    Duration::seconds(600), 0.75, 0.96),
        at(300));
    probe->record_delivery(hw::ComponentSet{hw::Component::kWifi},
                           Duration::seconds(2));
  }
};

template <typename Policy>
void BM_SelectBatch(benchmark::State& state) {
  QueueFixture fx(static_cast<std::size_t>(state.range(0)));
  const Policy policy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.select_batch(*fx.probe, fx.queue));
  }
  state.SetComplexityN(state.range(0));
}

void BM_HardwareSimilarity(benchmark::State& state) {
  const hw::ComponentSet a{hw::Component::kWifi, hw::Component::kWps};
  const hw::ComponentSet b{hw::Component::kWifi};
  const alarm::SimilarityConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(alarm::hardware_grade(a, b, cfg));
  }
}

void BM_TimeSimilarity(benchmark::State& state) {
  const TimeInterval wa{at(0), at(150)};
  const TimeInterval ga{at(0), at(192)};
  const TimeInterval wb{at(170), at(320)};
  const TimeInterval gb{at(170), at(362)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(alarm::time_similarity(wa, ga, wb, gb));
  }
}

void BM_FullStandbyExperiment(benchmark::State& state) {
  for (auto _ : state) {
    exp::ExperimentConfig c;
    c.policy = state.range(0) == 0 ? exp::PolicyKind::kNative : exp::PolicyKind::kSimty;
    c.workload = exp::WorkloadKind::kHeavy;
    benchmark::DoNotOptimize(exp::run_experiment(c));
  }
}

}  // namespace

BENCHMARK_TEMPLATE(BM_SelectBatch, alarm::NativePolicy)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->Complexity(benchmark::oN);
BENCHMARK_TEMPLATE(BM_SelectBatch, alarm::SimtyPolicy)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->Complexity(benchmark::oN);
BENCHMARK_TEMPLATE(BM_SelectBatch, alarm::DurationSimtyPolicy)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->Complexity(benchmark::oN);
BENCHMARK(BM_HardwareSimilarity);
BENCHMARK(BM_TimeSimilarity);
BENCHMARK(BM_FullStandbyExperiment)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
