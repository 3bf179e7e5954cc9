#pragma once
// Low-power wake-up receiver (WuR).
//
// A companion receiver that listens for wake-up sequences while the main
// radio sleeps (Rostami et al., arXiv 2001.00914 / 1911.04177): its listen
// power is orders of magnitude below the main radio's DRX paging draw, so a
// device that answers pages via the WuR can skip the per-cycle on-duration
// entirely and instead pay a small decode impulse plus a trigger-to-radio
// latency per page. The receiver publishes its listen rail on the PowerBus
// as Component::kWur — it never holds a wakelock, so it stays serializable
// at device-quiescent instants (WakelockManager snapshots require zero held
// locks). The net-layer DRX pager decides *when* it listens and triggers.

#include <cstdint>

#include "common/time.hpp"
#include "common/units.hpp"
#include "hw/power_bus.hpp"
#include "sim/simulator.hpp"

namespace simty::snapshot {
class Writer;
class SectionReader;
}  // namespace simty::snapshot

namespace simty::hw {

/// Electrical/timing parameters of the wake-up receiver. The defaults
/// mirror PowerModel::nexus5()'s kWur entry; the trigger energy covers the
/// sequence decode plus the interrupt to the main-radio baseband.
struct WurConfig {
  Power listen = Power::milliwatts(0.1);
  Energy wake_trigger = Energy::millijoules(2.0);
  Duration wake_latency = Duration::millis(15);
};

/// The receiver itself: a listen rail plus a trigger impulse counter. All
/// state is a pure function of the call sequence, so serial and parallel
/// runs (which never share a receiver) stay bit-identical.
class WakeupReceiver {
 public:
  WakeupReceiver(sim::Simulator& sim, WurConfig config, PowerBus& bus);

  WakeupReceiver(const WakeupReceiver&) = delete;
  WakeupReceiver& operator=(const WakeupReceiver&) = delete;

  const WurConfig& config() const { return config_; }

  /// Powers the listen rail on/off (idempotent). The pager toggles this
  /// with the RRC state: listening only while the main radio is IDLE.
  void start_listening();
  void stop_listening();
  bool listening() const { return listening_; }

  /// Decodes one wake-up sequence: pays the trigger impulse and returns the
  /// latency until the main radio can act on it. Requires listening().
  Duration trigger();

  std::uint64_t triggers() const { return triggers_; }

  /// Energy spent on triggers so far (impulses are bussed under the "wur"
  /// tag, so the accountant attributes them to kWur as activation energy).
  Energy trigger_energy() const { return config_.wake_trigger * static_cast<double>(triggers_); }

  /// Accumulated listen time; finalize() flushes the open span.
  Duration listen_time() const { return listen_time_; }
  void finalize(TimePoint now);

  /// Serializes rail state and counters; restore() re-announces the listen
  /// rail so a fresh listener stack starts from the restored state.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::SectionReader& s);

  /// State fields, in snapshot order.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("listening", self.listening_);
    f("listening_since", self.listening_since_);
    f("listen_time", self.listen_time_);
    f("triggers", self.triggers_);
  }

 private:
  sim::Simulator& sim_;
  WurConfig config_;
  PowerBus& bus_;

  bool listening_ = false;
  TimePoint listening_since_;
  Duration listen_time_ = Duration::zero();
  std::uint64_t triggers_ = 0;
};

}  // namespace simty::hw
