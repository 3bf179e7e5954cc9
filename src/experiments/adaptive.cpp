#include "experiments/adaptive.hpp"

#include "common/check.hpp"

namespace simty::exp {

AdaptiveBetaController::AdaptiveBetaController(std::vector<Band> bands)
    : bands_(std::move(bands)) {
  SIMTY_CHECK_MSG(!bands_.empty(), "controller needs at least one band");
  SIMTY_CHECK_MSG(bands_.back().soc_at_least == 0.0,
                  "last band must cover soc 0 (floor band)");
  for (std::size_t i = 0; i < bands_.size(); ++i) {
    SIMTY_CHECK(bands_[i].beta >= 0.0 && bands_[i].beta < 1.0);
    if (i > 0) {
      SIMTY_CHECK_MSG(bands_[i].soc_at_least < bands_[i - 1].soc_at_least,
                      "bands must have strictly descending thresholds");
      SIMTY_CHECK_MSG(bands_[i].beta >= bands_[i - 1].beta,
                      "beta must not decrease as charge falls");
    }
  }
}

AdaptiveBetaController AdaptiveBetaController::default_profile() {
  return AdaptiveBetaController({{0.5, 0.80}, {0.2, 0.90}, {0.0, 0.96}});
}

double AdaptiveBetaController::beta_for(double soc) const {
  SIMTY_CHECK_MSG(soc >= 0.0 && soc <= 1.0, "soc must be in [0, 1]");
  for (const Band& band : bands_) {
    if (soc >= band.soc_at_least) return band.beta;
  }
  return bands_.back().beta;
}

DepletionResult run_until_depleted(ExperimentConfig base, hw::Battery battery,
                                   const AdaptiveBetaController* controller,
                                   int max_segments) {
  SIMTY_CHECK(max_segments > 0);
  SIMTY_CHECK(base.duration > Duration::zero());

  DepletionResult out;
  for (int seg = 0; seg < max_segments; ++seg) {
    DepletionSegment s;
    s.soc_start = battery.state_of_charge();
    s.beta = controller != nullptr ? controller->beta_for(s.soc_start) : base.beta;

    ExperimentConfig c = base;
    c.beta = s.beta;
    c.seed = base.seed + static_cast<std::uint64_t>(seg);
    const RunResult r = run_experiment(c);
    s.consumed = r.energy.total();
    s.delay_imperceptible = r.delay_imperceptible;

    const Energy remaining = battery.remaining();
    if (s.consumed >= remaining) {
      // Partial final segment: prorate the time by the energy left
      // (standby power is near-constant within a segment).
      const double fraction = remaining.ratio(s.consumed);
      out.standby_time += base.duration * fraction;
      s.consumed = remaining;
      battery.consume(remaining);
      out.history.push_back(s);
      out.depleted = true;
      return out;
    }
    battery.consume(s.consumed);
    out.standby_time += base.duration;
    out.history.push_back(s);
  }
  return out;  // not depleted within max_segments
}

}  // namespace simty::exp
