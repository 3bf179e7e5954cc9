// The trace-diff gate's in-tree core: the binary trace of a run must be a
// pure function of the config — identical whether the surrounding
// repetition batch ran serially or on the thread pool — and a perturbed
// config must produce a trace whose first divergence trace_diff can name.
// CI repeats the same check end-to-end through simty_run + tools/trace_diff.

#include <gtest/gtest.h>

#include "exp/experiment.hpp"
#include "trace/tracer.hpp"

namespace simty::exp {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig c;
  c.policy = PolicyKind::kSimty;
  c.workload = WorkloadKind::kLight;
  c.duration = Duration::seconds(1200);
  c.seed = 1;
  return c;
}

TEST(TraceDeterminism, SerialAndParallelRunsProduceIdenticalTraces) {
#if defined(SIMTY_TRACE_DISABLED)
  GTEST_SKIP() << "tracing is compiled out (-DSIMTY_TRACING=OFF), so the tracer records "
                  "nothing and there are no events to compare";
#endif
  trace::Tracer serial_t;
  ExperimentConfig serial_c = small_config();
  serial_c.tracer = &serial_t;
  run_repeated(serial_c, 2, /*jobs=*/1);

  trace::Tracer parallel_t;
  ExperimentConfig parallel_c = small_config();
  parallel_c.tracer = &parallel_t;
  run_repeated(parallel_c, 2, /*jobs=*/2);

  ASSERT_GT(serial_t.size(), 0u);
  EXPECT_EQ(serial_t.size(), parallel_t.size());
  // Byte-identical binaries, not just equal summaries: this is the same
  // comparison the CI job makes with cmp on the exported files.
  EXPECT_EQ(serial_t.binary(), parallel_t.binary());
  const trace::TraceDiff d = trace::diff_traces(
      trace::decode_trace(serial_t.binary()),
      trace::decode_trace(parallel_t.binary()));
  EXPECT_TRUE(d.equal) << d.summary;
}

TEST(TraceDeterminism, RepeatedIdenticalRunsProduceIdenticalTraces) {
  trace::Tracer first, second;
  ExperimentConfig c = small_config();
  c.tracer = &first;
  run_experiment(c);
  c.tracer = &second;
  run_experiment(c);
  EXPECT_EQ(first.binary(), second.binary());
}

TEST(TraceDeterminism, PerturbedSeedDivergesAndDiffPinpointsIt) {
#if defined(SIMTY_TRACE_DISABLED)
  GTEST_SKIP() << "tracing is compiled out (-DSIMTY_TRACING=OFF), so the tracer records "
                  "nothing and two empty traces cannot diverge";
#endif
  trace::Tracer base_t, other_t;
  ExperimentConfig base_c = small_config();
  base_c.tracer = &base_t;
  run_experiment(base_c);

  ExperimentConfig other_c = small_config();
  other_c.seed = 99;
  other_c.tracer = &other_t;
  run_experiment(other_c);

  const trace::TraceDiff d = trace::diff_traces(
      trace::decode_trace(base_t.binary()),
      trace::decode_trace(other_t.binary()));
  EXPECT_FALSE(d.equal);
  ASSERT_TRUE(d.first_divergence.has_value());
  // The run span carries the seed as its arg, so the two traces disagree
  // from the very first event — the diff names it rather than hand-waving.
  EXPECT_EQ(*d.first_divergence, 0u);
  EXPECT_NE(d.summary.find("run"), std::string::npos);
}

TEST(TraceDeterminism, TracerRidesTheBaseSeedOnlyInRepetitionBatches) {
  trace::Tracer repeated_t;
  ExperimentConfig c = small_config();
  c.tracer = &repeated_t;
  run_repeated(c, 3, /*jobs=*/1);

  trace::Tracer single_t;
  ExperimentConfig single = small_config();
  single.tracer = &single_t;
  run_experiment(single);

  // Three repetitions do not triple the trace: seeds 2 and 3 run untraced.
  EXPECT_EQ(repeated_t.binary(), single_t.binary());
}

}  // namespace
}  // namespace simty::exp
