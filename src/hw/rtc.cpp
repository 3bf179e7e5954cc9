#include "hw/rtc.hpp"

#include "common/check.hpp"
#include "snapshot/codec.hpp"

namespace simty::hw {

Rtc::Rtc(sim::Simulator& sim, Device& device) : sim_(sim), device_(device) {}

void Rtc::program(TimePoint when, std::function<void()> handler) {
  SIMTY_CHECK(static_cast<bool>(handler));
  SIMTY_CHECK_MSG(when >= sim_.now(), "Rtc::program: deadline in the past");
  clear();
  handler_ = std::move(handler);
  programmed_ = Programmed{when, sim_.schedule_at(
                                     when, [this] { fire(); },
                                     sim::EventPriority::kHardware, "rtc-interrupt")};
}

void Rtc::clear() {
  if (programmed_) {
    sim_.cancel(programmed_->event);
    programmed_.reset();
  }
  handler_ = nullptr;
}

void Rtc::restore(snapshot::SectionReader& s, std::function<void()> handler) {
  handler_ = nullptr;
  snapshot::read_fields(s, *this);
  if (programmed_) {
    SIMTY_CHECK_MSG(static_cast<bool>(handler),
                    "Rtc::restore: programmed interrupt needs a handler");
    handler_ = std::move(handler);
    sim_.rebind(programmed_->event, [this] { fire(); });
  }
}

void Rtc::fire() {
  programmed_.reset();
  ++fired_;
  auto handler = std::move(handler_);
  handler_ = nullptr;
  // The handler runs only once the platform has completed its wake
  // transition; if already awake it runs immediately.
  device_.request_awake(WakeReason::kRtcAlarm, std::move(handler));
}

}  // namespace simty::hw
