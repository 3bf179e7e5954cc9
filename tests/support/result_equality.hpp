#pragma once
// Exact equality of result types, walked from the metric tables: a metric
// added to SIMTY_RUN_RESULT_SCALARS (which serve::Response repeats) or
// SIMTY_FLEET_METRICS is compared here with no further edit. EXPECT_EQ on
// doubles is exact on purpose: the contract is bit-identical results, not
// "close enough".

#include <gtest/gtest.h>

#include "exp/experiment.hpp"
#include "fleet/aggregate.hpp"
#include "serve/serve_core.hpp"

namespace simty::support {

inline void expect_identical(const exp::RunResult& a, const exp::RunResult& b) {
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.duration.us(), b.duration.us());
  EXPECT_EQ(a.runs, b.runs);
  const power::EnergyBreakdown& ea = a.energy;
  const power::EnergyBreakdown& eb = b.energy;
  EXPECT_EQ(ea.sleep.mj(), eb.sleep.mj());
  EXPECT_EQ(ea.waking.mj(), eb.waking.mj());
  EXPECT_EQ(ea.awake_base.mj(), eb.awake_base.mj());
  EXPECT_EQ(ea.wake_transitions.mj(), eb.wake_transitions.mj());
  EXPECT_EQ(ea.component_active.mj(), eb.component_active.mj());
  EXPECT_EQ(ea.component_activation.mj(), eb.component_activation.mj());
  for (std::size_t i = 0; i < ea.per_component.size(); ++i) {
    EXPECT_EQ(ea.per_component[i].mj(), eb.per_component[i].mj()) << "component " << i;
  }
  ASSERT_EQ(a.wakeups.size(), b.wakeups.size());
  for (std::size_t i = 0; i < a.wakeups.size(); ++i) {
    EXPECT_EQ(a.wakeups[i].hardware, b.wakeups[i].hardware);
    EXPECT_EQ(a.wakeups[i].actual, b.wakeups[i].actual) << a.wakeups[i].hardware;
    EXPECT_EQ(a.wakeups[i].expected, b.wakeups[i].expected) << a.wakeups[i].hardware;
  }
  exp::for_each_scalar([&](const char* name, exp::Fold, auto member) {
    EXPECT_EQ(a.*member, b.*member) << name;
  });
}

/// Metric rows and policy; the provenance flags (cached, warm_started) are
/// left to the caller, since they legitimately differ between answers.
inline void expect_identical(const serve::Response& a, const serve::Response& b) {
  EXPECT_EQ(a.policy_name, b.policy_name);
  serve::Response::for_each_metric([&](const char* name, auto member, auto) {
    EXPECT_EQ(a.*member, b.*member) << name;
  });
}

inline void expect_identical(const fleet::MetricAggregate& a,
                             const fleet::MetricAggregate& b) {
  EXPECT_EQ(a.stats().count(), b.stats().count());
  EXPECT_EQ(a.stats().mean(), b.stats().mean());
  EXPECT_EQ(a.stats().variance(), b.stats().variance());
  EXPECT_EQ(a.stats().min(), b.stats().min());
  EXPECT_EQ(a.stats().max(), b.stats().max());
  EXPECT_EQ(a.histogram().count(), b.histogram().count());
  EXPECT_EQ(a.histogram().overflow(), b.histogram().overflow());
  EXPECT_EQ(a.histogram().buckets(), b.histogram().buckets());
  if (!a.histogram().empty() && !b.histogram().empty()) {
    EXPECT_EQ(a.histogram().min(), b.histogram().min());
    EXPECT_EQ(a.histogram().max(), b.histogram().max());
    for (const double q : {0.5, 0.95, 0.99}) {
      EXPECT_EQ(a.quantile(q), b.quantile(q));
    }
  }
}

inline void expect_identical(const fleet::CohortAggregate& a,
                             const fleet::CohortAggregate& b) {
  EXPECT_EQ(a.cohort, b.cohort);
  EXPECT_EQ(a.devices, b.devices);
  fleet::CohortAggregate::for_each_metric([&](const char* name, auto stream, auto) {
    SCOPED_TRACE(name);
    expect_identical(a.*stream, b.*stream);
  });
}

}  // namespace simty::support
