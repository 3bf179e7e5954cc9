// Own stack: a GCM-push config field would serve only this bench (ROADMAP 7).
// Ablation A8: GCM push traffic vs alarm alignment (paper footnote 1 calls
// the two mechanisms orthogonal). Adds push streams of increasing rate to
// the light workload and measures both policies. Expectations: push wakes
// cost the same under both policies (alignment cannot touch externally-
// triggered wakeups), so SIMTY's relative saving shrinks as pushes
// dominate — quantifying how far the orthogonality claim carries.

#include <cstdio>
#include <memory>

#include "alarm/native_policy.hpp"
#include "alarm/simty_policy.hpp"
#include "apps/workload.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "experiments/gcm_service.hpp"
#include "hw/device.hpp"
#include "hw/power_bus.hpp"
#include "hw/rtc.hpp"
#include "hw/wakelock.hpp"
#include "power/energy_accounting.hpp"
#include "sim/simulator.hpp"

using namespace simty;

namespace {

struct Outcome {
  double total_j = 0.0;
  double pushes = 0.0;
};

Outcome run(bool use_simty, Duration push_mean, std::uint64_t seed) {
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

  apps::WorkloadConfig wc;
  wc.seed = seed;
  apps::Workload workload = apps::Workload::light(wc);
  workload.deploy(sim, manager);

  const TimePoint horizon = TimePoint::origin() + Duration::hours(3);

  gcm::GcmService gcmsvc(sim, device, wakelocks, manager, gcm::GcmConfig{});
  gcmsvc.connect();
  gcmsvc.subscribe("chat", [](const gcm::PushMessage&) {});
  gcmsvc.subscribe("mail", [](const gcm::PushMessage&) {});
  std::unique_ptr<gcm::PushServer> server;
  if (push_mean > Duration::zero()) {
    server = std::make_unique<gcm::PushServer>(
        sim, gcmsvc,
        std::vector<gcm::TopicTraffic>{{"chat", push_mean, 2048},
                                       {"mail", push_mean * 3, 8192}},
        Rng(seed, 0x6C6));
    server->start(horizon);
  }

  sim.run_until(horizon);
  device.finalize(horizon);
  wakelocks.finalize(horizon);
  accountant.finalize(horizon);
  return Outcome{accountant.breakdown().total().joules_f(),
                 server ? static_cast<double>(server->sent()) : 0.0};
}

Outcome averaged(bool use_simty, Duration push_mean) {
  Outcome sum;
  const int reps = 3;
  for (int i = 0; i < reps; ++i) {
    const Outcome o = run(use_simty, push_mean, static_cast<std::uint64_t>(i + 1));
    sum.total_j += o.total_j / reps;
    sum.pushes += o.pushes / reps;
  }
  return sum;
}

}  // namespace

int main() {
  TextTable t("Push traffic vs alignment (light workload + GCM, 3 h, 3 seeds)");
  t.set_header({"push mean gap", "pushes", "NATIVE (J)", "SIMTY (J)",
                "SIMTY saving"});
  const Duration gaps[] = {Duration::zero(), Duration::seconds(1200),
                           Duration::seconds(600), Duration::seconds(300),
                           Duration::seconds(120)};
  for (const Duration gap : gaps) {
    const Outcome native = averaged(false, gap);
    const Outcome simty = averaged(true, gap);
    t.add_row({gap.is_zero() ? "off" : gap.to_string(),
               str_format("%.0f", native.pushes), str_format("%.1f", native.total_j),
               str_format("%.1f", simty.total_j),
               percent(1.0 - simty.total_j / native.total_j)});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}
