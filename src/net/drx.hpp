#pragma once
// DRX/paging-cycle model for the cellular radio in connected standby.
//
// Where the alarm queue models *uplink-initiated* wakeups (the paper's
// economy), this models the downlink side the 5G literature optimizes
// (Rostami et al., arXiv 2001.00914 / 1911.04177): the network pages the
// device, and the device either listens for pages on the main radio at
// every discontinuous-reception (DRX) paging occasion — a fixed time grid,
// one short on-duration per cycle — or delegates listening to a wake-up
// receiver (hw::WakeupReceiver) whose listen power is orders of magnitude
// lower and answers pages after a configurable delay budget.
//
// Downlink page arrivals are a Poisson process on the pager's own forked
// rng stream. While the RRC machine is connected (FACH/DCH) pages ride the
// open connection and deliver immediately; while it is IDLE they queue:
//   - DRX mode: until the next paging occasion, whose on-duration is billed
//     as a kCellular listen span at DrxConfig::listen power;
//   - WuR mode: the receiver decodes the sequence (trigger impulse), and
//     one answer event fires after trigger latency + delay budget, batching
//     every page that lands inside the budget window into one promotion.
// Either way the answer wakes the device (kExternalPush), holds the CPU for
// page_hold, and drives RrcMachine::data_activity — one promotion per
// answered batch, exactly like a GCM push.
//
// Determinism: every decision is a pure function of (config, rng stream,
// sim event order); the pager never reads wall-clock state, so serial and
// --jobs runs are bit-identical, and all pending events serialize/rebind
// through snapshots (including a snapshot taken mid on-duration).

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "hw/device.hpp"
#include "hw/wur.hpp"
#include "metrics/histogram.hpp"
#include "net/rrc.hpp"

namespace simty::snapshot {
class Writer;
class SectionReader;
}  // namespace simty::snapshot

namespace simty::net {

/// Paging/DRX scenario parameters. Cycle and on-duration are LTE/NR-ish
/// defaults (1.28 s paging cycle, 10 ms on-duration); `listen` is the main
/// radio's receive draw during the on-duration.
struct DrxConfig {
  Duration paging_cycle = Duration::millis(1280);
  Duration on_duration = Duration::millis(10);
  Power listen = Power::milliwatts(120.0);

  /// Mean gap of the Poisson downlink page arrivals.
  Duration mean_page_gap = Duration::seconds(40);

  /// Data activity (and CPU hold) per answered page batch.
  Duration page_hold = Duration::seconds(2);

  /// Answer pages via the wake-up receiver instead of DRX listening.
  bool wur = false;

  /// WuR mode only: wait this long after the trigger before answering, so
  /// pages arriving inside the window share one wake + one promotion. The
  /// delay-vs-energy knob of the WUR policy.
  Duration wur_delay_budget = Duration::zero();
};

/// Drives paging occasions, page arrivals, and answers; owns the page-delay
/// distribution. One per device; see the file comment.
class DrxPager {
 public:
  /// `wur` may be null (DRX mode); everything referenced must outlive the
  /// pager. In WuR mode the pager installs itself as the RRC machine's
  /// state observer to gate the receiver's listen rail to IDLE periods.
  DrxPager(sim::Simulator& sim, RrcMachine& rrc, hw::Device& device,
           hw::PowerBus& bus, hw::WakeupReceiver* wur, DrxConfig config,
           Rng rng);

  DrxPager(const DrxPager&) = delete;
  DrxPager& operator=(const DrxPager&) = delete;

  /// Schedules the first arrival and (DRX mode) the first paging occasion.
  void start();

  const DrxConfig& config() const { return config_; }

  /// Delay from page arrival to its batch's answer running on the CPU.
  const metrics::Histogram& page_delays() const { return delays_; }

  std::uint64_t pages_arrived() const { return pages_arrived_; }
  std::uint64_t pages_answered() const { return pages_answered_; }
  /// Pages that arrived while the radio was connected (no queueing).
  std::uint64_t immediate_pages() const { return immediate_pages_; }
  /// Paging occasions actually listened on the main radio (IDLE only).
  std::uint64_t occasions_listened() const { return occasions_listened_; }

  /// Main-radio time spent in DRX on-durations; finalize() flushes a span
  /// the horizon cuts open.
  Duration drx_listen_time() const { return drx_listen_time_; }

  void finalize(TimePoint horizon);

  /// Serializes queue, rng position, counters, histogram, and every pending
  /// event; restore() rebinds them and re-announces an open listen rail.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::SectionReader& s);

  /// State fields, in snapshot order.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("rng", self.rng_);
    f("pending", self.pending_);
    f("arrival_event", self.arrival_event_);
    f("occasion_event", self.occasion_event_);
    f("listen_end_event", self.listen_end_event_);
    f("answer_event", self.answer_event_);
    f("listen_open", self.listen_open_);
    f("listen_since", self.listen_since_);
    f("drx_listen_time", self.drx_listen_time_);
    f("pages_arrived", self.pages_arrived_);
    f("pages_answered", self.pages_answered_);
    f("immediate_pages", self.immediate_pages_);
    f("occasions_listened", self.occasions_listened_);
    f("delays", self.delays_);
  }

 private:
  void on_arrival();
  void on_occasion();
  void end_listen();
  void answer_now();
  void deliver_pending();
  void schedule_next_arrival();

  sim::Simulator& sim_;
  RrcMachine& rrc_;
  hw::Device& device_;
  hw::PowerBus& bus_;
  hw::WakeupReceiver* wur_;
  DrxConfig config_;
  Rng rng_;

  std::vector<TimePoint> pending_;  // arrival instants awaiting an answer
  std::optional<sim::EventId> arrival_event_;
  std::optional<sim::EventId> occasion_event_;
  std::optional<sim::EventId> listen_end_event_;
  std::optional<sim::EventId> answer_event_;

  bool listen_open_ = false;   // inside a DRX on-duration
  TimePoint listen_since_;
  Duration drx_listen_time_ = Duration::zero();

  std::uint64_t pages_arrived_ = 0;
  std::uint64_t pages_answered_ = 0;
  std::uint64_t immediate_pages_ = 0;
  std::uint64_t occasions_listened_ = 0;
  metrics::Histogram delays_{60.0, 600};
};

}  // namespace simty::net
