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

void IntervalAudit::save(snapshot::Writer& w) const {
  w.u64(stats_.size());
  for (const auto& [id, s] : stats_) {
    w.u64(id);
    w.str(s.tag);
    w.u8(static_cast<std::uint8_t>(s.mode));
    w.i64(s.repeat.us());
    w.boolean(s.ever_perceptible);
    w.boolean(s.last_perceptible);
    w.u64(s.deliveries);
    w.i64(s.min_gap.us());
    w.i64(s.max_gap.us());
  }
  w.u64(stats_.size());
  for (const auto& [id, s] : stats_) {
    w.u64(id);
    w.i64(s.last_delivered.us());
  }
}

void IntervalAudit::restore(snapshot::SectionReader& s) {
  stats_.clear();
  const std::uint64_t stat_count = s.u64();
  // id + min fixed fields per entry: u64(9) + str(9) + u8(2) + i64(9) +
  // 2 bools(4) + u64(9) + 2 i64(18).
  s.check_count(stat_count, 60);
  for (std::uint64_t i = 0; i < stat_count; ++i) {
    const std::uint64_t id = s.u64();
    GapStats g;
    g.tag = s.str();
    const std::uint8_t mode = s.u8();
    SIMTY_CHECK_MSG(mode <= static_cast<std::uint8_t>(alarm::RepeatMode::kDynamic),
                    "IntervalAudit::restore: repeat mode out of range");
    g.mode = static_cast<alarm::RepeatMode>(mode);
    g.repeat = Duration::micros(s.i64());
    g.ever_perceptible = s.boolean();
    g.last_perceptible = s.boolean();
    g.deliveries = s.u64();
    g.min_gap = Duration::micros(s.i64());
    g.max_gap = Duration::micros(s.i64());
    SIMTY_CHECK_MSG(stats_.empty() || stats_.back().first < id,
                    "IntervalAudit::restore: duplicate or unordered alarm id");
    stats_.push_back(Entry{id, std::move(g)});
  }
  // Every audited alarm has a latest delivery, listed in the same order.
  SIMTY_CHECK_MSG(s.u64() == stats_.size(),
                  "IntervalAudit::restore: last-delivery count mismatch");
  for (Entry& e : stats_) {
    SIMTY_CHECK_MSG(s.u64() == e.first,
                    "IntervalAudit::restore: last-delivery id mismatch");
    e.second.last_delivered = TimePoint::from_us(s.i64());
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
