// Renders the experiment setup for fidelity checking against the paper:
// Table 2 (the modelled LG Nexus 5) and Table 3 (the 18 resident apps with
// their ReIn / alpha / static-dynamic / hardware attributes), plus the
// power-model calibration anchors of §2.2.

#include <cstdio>

#include "apps/app_catalog.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "hw/power_model.hpp"

using namespace simty;

int main() {
  TextTable spec("Table 2: specifications of LG Nexus 5 (modelled)");
  spec.set_header({"Category", "Item", "Value"});
  spec.add_row({"Hardware", "CPU", "Quad-core 2.26 GHz Krait 400"});
  spec.add_row({"Hardware", "Memory", "2GB LPDDR3 RAM"});
  spec.add_row({"Hardware", "Cellular", "3G WCDMA UMTS/HSPA/HSPA+"});
  spec.add_row({"Hardware", "WLAN", "2x2 MIMO Wi-Fi 802.11 a/b/g/n/ac"});
  spec.add_row({"Hardware", "Screen", "4.95in Full HD 1920x1080 IPS LCD"});
  spec.add_row({"Hardware", "Peripheral", "Speaker, Vibrator, Accelerometer, etc."});
  spec.add_row({"Hardware", "Battery", "3.8V 2300 mAh"});
  spec.add_row({"Software", "OS", "Android 4.4.4 / Linux kernel 3.4.0"});
  std::printf("%s\n", spec.render().c_str());

  TextTable apps("Table 3: mobile apps used in the experiments");
  apps.set_header({"H", "L", "App", "ReIn", "alpha", "S/D", "HW usage", "hold",
                   "imitated"});
  for (const apps::AppProfile& p : apps::table3_catalog()) {
    apps.add_row({"*", p.in_light ? "*" : "", p.name,
                  str_format("%lld", static_cast<long long>(p.repeat.us() / 1000000)),
                  str_format("%.2f", p.alpha),
                  p.mode == alarm::RepeatMode::kStatic ? "S" : "D",
                  p.hardware.to_string(),
                  str_format("%.1fs", p.base_hold.seconds_f()),
                  p.irregular ? "yes (trace replay)" : ""});
  }
  std::printf("%s\n", apps.render().c_str());

  const hw::PowerModel m = hw::PowerModel::nexus5();
  std::printf("Power-model calibration anchors (paper section 2.2):\n");
  std::printf("  bare wakeup:            %7.1f mJ (paper: 180 mJ)\n",
              m.solo_delivery_energy(hw::ComponentSet::none(), Duration::zero()).mj());
  std::printf("  solo WPS fix:           %7.1f mJ (paper: 3650 mJ)\n",
              m.solo_delivery_energy(hw::ComponentSet{hw::Component::kWps},
                                     Duration::seconds(10))
                  .mj());
  std::printf("  solo notification:      %7.1f mJ (paper: 400 mJ)\n",
              m.solo_delivery_energy(
                   hw::ComponentSet{hw::Component::kSpeaker, hw::Component::kVibrator},
                   Duration::seconds(1))
                  .mj());
  return 0;
}
