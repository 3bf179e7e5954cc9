#include "metrics/interval_audit.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "snapshot/snapshot.hpp"

namespace simty::metrics {

double GapStats::min_gap_over_repeat() const {
  if (repeat.is_zero() || min_gap == Duration::max()) return 0.0;
  return min_gap.ratio(repeat);
}

double GapStats::max_gap_over_repeat() const {
  if (repeat.is_zero()) return 0.0;
  return max_gap.ratio(repeat);
}

namespace {

bool id_less(const IntervalAudit::Entry& e, std::uint64_t id) { return e.first < id; }

}  // namespace

const GapStats* IntervalAudit::find(std::uint64_t id) const {
  const Entry* it = std::lower_bound(stats_.begin(), stats_.end(), id, id_less);
  return it != stats_.end() && it->first == id ? &it->second : nullptr;
}

void IntervalAudit::observe(const alarm::DeliveryRecord& record) {
  if (record.mode == alarm::RepeatMode::kOneShot) return;
  const std::uint64_t id = record.id.value;
  Entry* it = std::lower_bound(stats_.begin(), stats_.end(), id, id_less);
  if (it == stats_.end() || it->first != id) {
    GapStats fresh;
    fresh.tag = record.tag;
    fresh.mode = record.mode;
    fresh.repeat = record.repeat_interval;
    it = stats_.insert(it, Entry{id, std::move(fresh)});
  } else {
    GapStats& s = it->second;
    const Duration gap = record.delivered - s.last_delivered;
    s.min_gap = std::min(s.min_gap, gap);
    s.max_gap = std::max(s.max_gap, gap);
  }
  GapStats& s = it->second;
  s.ever_perceptible = s.ever_perceptible || record.was_perceptible;
  s.last_perceptible = record.was_perceptible;
  ++s.deliveries;
  s.last_delivered = record.delivered;
}

alarm::DeliveryObserver IntervalAudit::observer() {
  return [this](const alarm::DeliveryRecord& r) { observe(r); };
}

std::vector<GapViolation> IntervalAudit::check_bounds(double beta,
                                                      double slack) const {
  std::vector<GapViolation> out;
  for (const auto& [id, s] : stats_) {
    if (s.deliveries < 2) continue;
    // Upper bound: (1 + beta) * ReIn for both static and dynamic repeating
    // (§3.2.2). NATIVE only postpones within windows, so beta is a safe
    // over-approximation there too.
    const double upper = 1.0 + beta + slack;
    if (s.max_gap_over_repeat() > upper) {
      out.push_back(GapViolation{s.tag, true, s.max_gap_over_repeat(), upper});
    }
    // Lower bound: ReIn for dynamic, (1 - beta) * ReIn for static.
    const double lower =
        (s.mode == alarm::RepeatMode::kDynamic ? 1.0 : 1.0 - beta) - slack;
    if (s.min_gap_over_repeat() < lower) {
      out.push_back(GapViolation{s.tag, false, s.min_gap_over_repeat(), lower});
    }
  }
  return out;
}

void IntervalAudit::restore(snapshot::SectionReader& s) {
  snapshot::read_fields(s, *this);
  for (std::size_t i = 1; i < stats_.size(); ++i) {
    SIMTY_CHECK_MSG(stats_[i - 1].first < stats_[i].first,
                    "IntervalAudit::restore: duplicate or unordered alarm id");
  }
}

double IntervalAudit::worst_gap_ratio() const {
  // Every alarm's FIRST delivery counts as perceptible (footnote 5:
  // hardware still unknown), so filter on the post-profiling
  // classification: an alarm whose last delivery was imperceptible.
  double worst = 0.0;
  for (const auto& [id, s] : stats_) {
    if (s.deliveries < 2 || s.last_perceptible) continue;
    worst = std::max(worst, s.max_gap_over_repeat());
  }
  return worst;
}

}  // namespace simty::metrics
