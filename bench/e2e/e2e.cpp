#include "e2e.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <utility>

#include "common/check.hpp"

namespace simty::e2e {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  std::uint64_t z = seed ^ (stream * 0x9E3779B97F4A7C15ull) ^
                    (index * 0xD1B54A32D192ED03ull);
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void Digest::bytes(std::string_view s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ull;
  }
  u64(s.size());  // length-delimits consecutive strings
}

void Digest::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFFu;
    h_ *= 1099511628211ull;
  }
}

void Digest::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Digest::result(const exp::RunResult& r) {
  bytes(r.policy_name);
  u64(static_cast<std::uint64_t>(r.duration.us()));
  u64(static_cast<std::uint64_t>(r.runs));
  const power::EnergyBreakdown& e = r.energy;
  for (const Energy part : {e.sleep, e.waking, e.awake_base, e.wake_transitions,
                            e.component_active, e.component_activation}) {
    f64(part.mj());
  }
  for (const Energy part : e.per_component) f64(part.mj());
  for (const double v :
       {r.average_power_mw, r.projected_standby_hours, r.delay_perceptible,
        r.delay_imperceptible, r.delay_imperceptible_p95}) {
    f64(v);
  }
  u64(r.wakeups.size());
  for (const exp::RunResult::HwCounts& w : r.wakeups) {
    bytes(w.hardware);
    f64(w.actual);
    f64(w.expected);
  }
  for (const double v :
       {r.deliveries, r.batches_delivered, r.one_shots, r.awake_seconds,
        r.asleep_seconds, r.worst_gap_ratio}) {
    f64(v);
  }
  u64(r.gap_violations);
  u64(r.perceptible_window_misses);
  for (const double v :
       {r.pages_answered, r.page_delay_avg_s, r.page_delay_p95_s,
        r.drx_listen_seconds, r.wur_listen_seconds, r.wur_triggers}) {
    f64(v);
  }
}

bool identical(const exp::RunResult& a, const exp::RunResult& b) {
  Digest da;
  Digest db;
  da.result(a);
  db.result(b);
  return da.value() == db.value();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  return (*std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid)) +
          hi) / 2.0;
}

namespace {

// The kernel's median time on the host the checked-in numbers come from
// (4 vCPUs, RelWithDebInfo build). Changing it rescales every host-time
// metric, so it is fixed for good.
constexpr double kReferenceKernelMs = 0.32;

// Fraction of op time spent re-sampling the kernel, and how many recent
// samples a scale is the median of.
constexpr double kCalibrationBudget = 0.03;
constexpr std::size_t kRecentSamples = 5;

std::uint64_t lcg(std::uint64_t x) {
  return x * 6364136223846793005ull + 1442695040888963407ull;
}

volatile std::uint64_t kernel_sink = 0;  // keeps the kernel's work observable

}  // namespace

HostSpeed::HostSpeed() : values_(4096), next_(4096) {}

std::uint64_t HostSpeed::kernel() {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t& v : values_) v = x = lcg(x);
  std::sort(values_.begin(), values_.end());
  // Pointer chase around one random cycle (Sattolo's shuffle).
  for (std::uint32_t i = 0; i < next_.size(); ++i) next_[i] = i;
  for (std::size_t i = next_.size() - 1; i > 0; --i) {
    x = lcg(x);
    std::swap(next_[i], next_[(x >> 33) % i]);
  }
  std::uint32_t p = 0;
  for (int i = 0; i < 65536; ++i) p = next_[p];
  return values_[values_.size() / 2] + p;
}

void HostSpeed::sample() {
  const std::int64_t start = now_ns();
  kernel_sink = kernel();
  const std::int64_t elapsed = now_ns() - start;
  spent_ns_ += elapsed;
  ms_.push_back(static_cast<double>(elapsed) / 1e6);
}

void HostSpeed::keep_up(std::int64_t work_ns) {
  while (ms_.size() < kRecentSamples ||
         static_cast<double>(spent_ns_) <
             kCalibrationBudget * static_cast<double>(work_ns)) {
    sample();
  }
}

double HostSpeed::scale() const {
  const std::size_t n = std::min(ms_.size(), kRecentSamples);
  SIMTY_CHECK_MSG(n > 0, "host speed read before any calibration sample");
  const std::vector<double> recent(ms_.end() - static_cast<std::ptrdiff_t>(n), ms_.end());
  return kReferenceKernelMs / median(recent);
}

double HostSpeed::overall_scale() const {
  SIMTY_CHECK_MSG(!ms_.empty(), "host speed read before any calibration sample");
  return kReferenceKernelMs / median(ms_);
}

Spans::Spans(std::size_t keep) : keep_(keep), origin_ns_(now_ns()) {}

void Spans::begin(const char* name, std::uint64_t op) {
  const std::int64_t now = now_ns();
  std::int64_t record = -1;
  if (records_.size() < keep_) {
    const std::int64_t parent = open_.empty() ? -1 : open_.back().record;
    record = static_cast<std::int64_t>(records_.size());
    records_.push_back(Record{name, op, now, now, parent});
  } else {
    ++dropped_;
  }
  open_.push_back(Open{record, name, now, 0});
}

void Spans::end() {
  SIMTY_CHECK_MSG(!open_.empty(), "bench span end without a begin");
  const std::int64_t now = now_ns();
  const Open o = open_.back();
  open_.pop_back();
  last_ns_ = now - o.start_ns;
  if (o.record >= 0) {
    Record& r = records_[static_cast<std::size_t>(o.record)];
    r.name = o.name;
    r.end_ns = now;
  }
  auto it = stats_.find(std::string_view(o.name));
  if (it == stats_.end()) it = stats_.emplace(o.name, Stat{}).first;
  Stat& s = it->second;
  s.us.push_back(static_cast<double>(last_ns_) / 1e3);
  s.self_us += static_cast<double>(last_ns_ - o.child_ns) / 1e3;
  if (!open_.empty()) open_.back().child_ns += last_ns_;
}

void Spans::rename(const char* name) {
  SIMTY_CHECK_MSG(!open_.empty(), "bench span rename without an open span");
  open_.back().name = name;
}

double Spans::median_us(const std::string& name) const {
  const auto it = stats_.find(name);
  return it == stats_.end() ? 0.0 : median(it->second.us);
}

double Spans::total_us(const std::string& name) const {
  const auto it = stats_.find(name);
  if (it == stats_.end()) return 0.0;
  double total = 0.0;
  for (const double v : it->second.us) total += v;
  return total;
}

std::string Spans::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":" +
                    std::to_string(dropped_) + "},\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const std::string_view name(r.name);
    const std::string layer(name.substr(0, name.find('.')));
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                  "\"id\":%zu,\"parent\":%lld}}",
                  i == 0 ? "" : ",\n", r.name, layer.c_str(),
                  static_cast<double>(r.start_ns - origin_ns_) / 1e3,
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                  static_cast<unsigned long long>(r.op), i,
                  static_cast<long long>(r.parent));
    out += buf;
  }
  out += "]}\n";
  return out;
}

double Layers::count_mean(const std::string& name) const {
  const auto it = counts.find(name);
  if (it == counts.end() || it->second.second == 0) return 0.0;
  return it->second.first / static_cast<double>(it->second.second);
}

}  // namespace simty::e2e
