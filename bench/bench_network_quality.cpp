// Own stack: a link-quality config field would serve only this bench (ROADMAP 7).
// Ablation A10: link-quality sensitivity (ref [8]: achievable rates vary
// widely over time). Syncs carry byte payloads over a two-state Markov
// Wi-Fi link; sweeping the fraction of time the link is bad lengthens
// every hold. Expectations: total energy rises as the link degrades under
// BOTH policies; SIMTY's relative saving stays roughly stable (alignment
// amortizes wakeups and activations regardless of transfer speed).

#include <cstdio>
#include <iterator>
#include <memory>
#include <vector>

#include "alarm/native_policy.hpp"
#include "alarm/simty_policy.hpp"
#include "apps/workload.hpp"
#include "common/parallel_map.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "exp/experiment.hpp"
#include "hw/device.hpp"
#include "hw/power_bus.hpp"
#include "hw/rtc.hpp"
#include "hw/wakelock.hpp"
#include "net/wifi_link.hpp"
#include "power/energy_accounting.hpp"
#include "sim/simulator.hpp"

using namespace simty;

namespace {

struct Outcome {
  double total_j = 0.0;
  double good_fraction = 0.0;
};

Outcome run(bool use_simty, const net::WifiLinkConfig& link_cfg, std::uint64_t seed) {
  sim::Simulator sim;
  hw::PowerBus bus;
  power::EnergyAccountant accountant;
  bus.add_listener(&accountant);
  const hw::PowerModel model = hw::PowerModel::nexus5();
  hw::Device device(sim, model, bus);
  hw::Rtc rtc(sim, device);
  hw::WakelockManager wakelocks(sim, model, bus);
  std::unique_ptr<alarm::AlignmentPolicy> policy;
  if (use_simty) policy = std::make_unique<alarm::SimtyPolicy>();
  else policy = std::make_unique<alarm::NativePolicy>();
  alarm::AlarmManager manager(sim, device, rtc, wakelocks, std::move(policy));

  const TimePoint horizon = TimePoint::origin() + Duration::hours(3);
  net::WifiLink link(sim, link_cfg, Rng(seed, 0x11F));
  link.start(horizon);

  apps::WorkloadConfig wc;
  wc.seed = seed;
  apps::Workload workload = apps::Workload::light(wc);
  workload.deploy(sim, manager, &link);

  sim.run_until(horizon);
  device.finalize(horizon);
  wakelocks.finalize(horizon);
  accountant.finalize(horizon);
  return Outcome{accountant.breakdown().total().joules_f(),
                 link.good_fraction(horizon)};
}

}  // namespace

int main() {
  TextTable t("Link-quality sweep (light workload with byte-sized syncs, 3 h, 3 seeds)");
  t.set_header({"bad dwell", "good fraction", "NATIVE (J)", "SIMTY (J)",
                "SIMTY saving"});
  const std::int64_t kBadDwells[] = {0, 30, 90, 180, 400};
  const int reps = 3;

  // Each session owns its full simulator/link stack, so the whole sweep
  // fans out through one parallel_map; outcomes come back in index order
  // and the per-row accumulation below matches the old serial loop exactly.
  // Session k is (bad dwell k / (2 * reps), seed k / 2 % reps + 1, SIMTY iff
  // k is odd).
  const std::size_t per_dwell = 2 * static_cast<std::size_t>(reps);
  const std::vector<Outcome> outcomes = common::parallel_map(
      std::size(kBadDwells) * per_dwell, exp::default_jobs(), [&](std::size_t k) {
        const std::int64_t bad_s = kBadDwells[k / per_dwell];
        // Fix the good dwell, lengthen the bad dwell: the link spends ever
        // more time at 500 kbps.
        net::WifiLinkConfig cfg;
        cfg.good_rate_kbps = 20000.0;
        cfg.bad_rate_kbps = 500.0;
        cfg.mean_good_dwell = Duration::seconds(120);
        cfg.mean_bad_dwell = Duration::seconds(std::max<std::int64_t>(bad_s, 1));
        if (bad_s == 0) cfg.mean_good_dwell = Duration::hours(100);  // never degrade
        const auto seed = static_cast<std::uint64_t>(k % per_dwell / 2 + 1);
        return run(k % 2 == 1, cfg, seed);
      });

  std::size_t next = 0;
  for (const std::int64_t bad_s : kBadDwells) {
    double native_j = 0.0, simty_j = 0.0, good = 0.0;
    for (int i = 0; i < reps; ++i) {
      const Outcome& n = outcomes[next++];
      const Outcome& s = outcomes[next++];
      native_j += n.total_j / reps;
      simty_j += s.total_j / reps;
      good += n.good_fraction / reps;
    }
    t.add_row({bad_s == 0 ? "never bad" : Duration::seconds(bad_s).to_string(),
               percent(good, 0), str_format("%.1f", native_j),
               str_format("%.1f", simty_j), percent(1.0 - simty_j / native_j)});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}
