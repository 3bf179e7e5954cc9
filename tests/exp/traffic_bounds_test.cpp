// The traffic the event core is sized for (DESIGN.md §9). A run keeps a
// handful of events pending and a few tens of KiB of arena, so the queue is
// a plain 4-ary heap and the arena's first 64 KiB block holds a whole run.
// This test steps light and heavy runs under the four paper policies, each
// without paging, with DRX-only paging and with DRX+WuR paging, at seed 1,
// and fails, naming the run, if one outgrows those assumptions by a wide
// margin: a workload that needs a deeper queue should fail here, not slow
// down silently.
//
// Measured over these 24 runs: pending events peak at 25 (heavy, SIMTY,
// DRX-only; 14-20 without paging) and every arena reserves its one 64 KiB
// block.

#include "exp/run.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>

#include "common/arena.hpp"

namespace simty::exp {
namespace {

constexpr std::size_t kMaxPendingEvents = 64;
constexpr std::size_t kMaxArenaBytes = 256 * 1024;

TEST(RunTraffic, PendingEventsAndArenaStaySmall) {
  for (const WorkloadKind workload : {WorkloadKind::kLight, WorkloadKind::kHeavy}) {
    for (const PolicyKind policy : {PolicyKind::kNative, PolicyKind::kSimty,
                                    PolicyKind::kExact, PolicyKind::kSimtyDuration}) {
      for (const char* paging : {"none", "drx", "drx+wur"}) {
        ExperimentConfig c;
        c.workload = workload;
        c.policy = policy;
        if (paging != std::string("none")) c.drx.emplace();
        if (paging == std::string("drx+wur")) c.drx->wur = true;
        const std::string name = std::string(to_string(workload)) + "/" +
                                 to_string(policy) + "/" + paging;

        common::Arena arena;
        c.arena_opts.arena = &arena;
        exp::Run run(c);
        sim::Simulator& sim = run.simulator();
        std::size_t peak = sim.pending_events();
        while (sim.now() < run.horizon() && sim.step()) {
          peak = std::max(peak, sim.pending_events());
        }
        EXPECT_LE(peak, kMaxPendingEvents) << name << ": pending events peaked at " << peak;
        EXPECT_LE(arena.stats().reserved_bytes, kMaxArenaBytes)
            << name << ": arena reserved " << arena.stats().reserved_bytes << " bytes";
      }
    }
  }
}

}  // namespace
}  // namespace simty::exp
