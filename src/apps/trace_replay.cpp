#include "apps/trace_replay.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.hpp"
#include "snapshot/codec.hpp"

namespace simty::apps {

namespace {

// An irregular original's hold: exp(N(0, sigma)) scaling of the base hold
// (heavy-tailed, unlike the bounded uniform jitter of well-behaved apps),
// clamped to a sane band so a single sample cannot outlast the repeat
// interval.
Duration irregular_hold(const AppProfile& profile, Rng& rng) {
  const double sigma = std::max(0.2, profile.hold_jitter);
  double factor = std::exp(rng.normal(0.0, sigma));
  factor = std::min(std::max(factor, 0.25), 4.0);
  Duration hold = profile.base_hold * factor;
  const Duration cap = profile.repeat * 0.5;
  if (hold > cap) hold = cap;
  return hold;
}

}  // namespace

ImitatedApp::ImitatedApp(AppProfile profile, std::size_t length, std::uint64_t seed,
                         common::Arena* arena)
    : ResidentApp(std::move(profile), Rng(0)),
      entries_(arena),
      length_(length),
      recorder_(seed) {
  SIMTY_CHECK_MSG(length_ > 0, "imitated app needs a non-empty trace");
  // Recording happens on the delivery path, which must not allocate.
  entries_.reserve(length_);
}

const TraceEntry& ImitatedApp::entry(std::size_t i) {
  SIMTY_CHECK_MSG(i < length_, "ImitatedApp::entry: index past the trace");
  while (entries_.size() <= i) {
    entries_.push_back(
        TraceEntry{profile_.hardware, irregular_hold(profile_, recorder_)});
  }
  return entries_[i];
}

void ImitatedApp::save(snapshot::Writer& w) const {
  ResidentApp::save(w);
  snapshot::write_fields(w, *this);
}

void ImitatedApp::restore(snapshot::SectionReader& s) {
  ResidentApp::restore(s);
  snapshot::read_fields(s, *this);
  SIMTY_CHECK_MSG(cursor_ < length_, "ImitatedApp::restore: replay cursor " +
                                         std::to_string(cursor_) +
                                         " past the trace length " +
                                         std::to_string(length_));
}

alarm::TaskSpec ImitatedApp::next_task() {
  const TraceEntry& e = entry(cursor_);
  cursor_ = (cursor_ + 1) % length_;
  return alarm::TaskSpec{e.hardware, e.hold};
}

AppTrace record_trace(const AppProfile& profile, std::size_t deliveries,
                      std::uint64_t seed) {
  SIMTY_CHECK(deliveries > 0);
  // A profiling pass does not need the full device stack: we sample the
  // app's hold distribution directly, which is exactly what the framework
  // hooks observed on the phone.
  Rng rng(seed);
  AppTrace trace{profile.name, {}};
  trace.entries.reserve(deliveries);
  for (std::size_t i = 0; i < deliveries; ++i) {
    trace.entries.push_back(TraceEntry{profile.hardware, irregular_hold(profile, rng)});
  }
  return trace;
}

}  // namespace simty::apps
