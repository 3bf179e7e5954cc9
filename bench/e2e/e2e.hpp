#pragma once
// Shared pieces of the end-to-end benchmark: output digests, the
// benchmark's own spans and per-layer sinks, and the interface each
// workload implements.
//
// Everything here sits outside the simulator. The benchmark times a layer
// by wrapping the public call that enters it (exp::Run's constructor,
// Simulator::run_until, Run::finish, ServeCore::handle, the serve codec,
// fleet::sample_device, ...); spans inside the program are a later step.

#include <chrono>
#include <functional>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exp/experiment.hpp"
#include "trace/tracer.hpp"

namespace simty::e2e {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 over (seed, stream, index): how every op derives its run,
/// fleet or sweep seed from the benchmark's --seed. The library only ever
/// sees the resulting configs.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index);

/// FNV-1a over full-precision outputs; doubles enter by bit pattern, so
/// equal digests mean bit-identical outputs.
class Digest {
 public:
  void bytes(std::string_view s);
  void u64(std::uint64_t v);
  void f64(double v);
  /// Every field of a RunResult.
  void result(const exp::RunResult& r);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// True when every field of the two results is bit-identical.
bool identical(const exp::RunResult& a, const exp::RunResult& b);

/// Median of the samples; 0 for none.
double median(std::vector<double> v);

/// Host-speed calibration. A shared host's speed drifts by 10-50% over
/// seconds as other tenants come and go, and that drift moves every host
/// time alike. A fixed bench-local kernel (a sort plus a pointer chase over
/// buffers it owns, so the heap state the workload leaves cannot move it)
/// is timed between ops, outside every timed region; host times are
/// rescaled by the reference kernel time over the kernel's recent median.
/// A change to the simulator moves the ops but never the kernel, so it
/// stays visible while host drift cancels.
class HostSpeed {
 public:
  HostSpeed();
  /// Times the kernel once.
  void sample();
  /// Samples until kernel time reaches 3% of `work_ns` (time spent on ops).
  void keep_up(std::int64_t work_ns);
  /// Converts a host time measured now into reference-host time: the
  /// reference kernel time over the median of the last few samples.
  double scale() const;
  /// Same over every sample taken.
  double overall_scale() const;

 private:
  std::uint64_t kernel();

  std::vector<std::uint64_t> values_;
  std::vector<std::uint32_t> next_;
  std::vector<double> ms_;
  std::int64_t spent_ns_ = 0;
};

/// In-memory span recorder for the traced pass. A span has a name (its
/// layer is the part before the first '.'), start, end, parent span and
/// the op id shared by everything one op did. Every span feeds a per-name
/// summary (count, per-call durations for the median, self time = duration
/// minus the time its children cover); the first `keep` spans are also
/// kept verbatim for the Chrome trace.
class Spans {
 public:
  struct Stat {
    std::vector<double> us;  // per-call durations
    double self_us = 0.0;
  };

  explicit Spans(std::size_t keep);

  void begin(const char* name, std::uint64_t op);
  void end();
  /// Renames the innermost open span (its class may be known only at end).
  void rename(const char* name);
  /// Duration of the span that ended last, in nanoseconds.
  std::int64_t last_ns() const { return last_ns_; }

  const std::map<std::string, Stat, std::less<>>& stats() const { return stats_; }
  double median_us(const std::string& name) const;
  double total_us(const std::string& name) const;

  /// Chrome trace-event JSON ("X" events, microsecond timestamps).
  std::string chrome_json() const;

 private:
  struct Record {
    const char* name;
    std::uint64_t op;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  // index into records_, -1 for roots or unkept
  };
  struct Open {
    std::int64_t record;  // index into records_, -1 when not kept
    const char* name;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  std::size_t keep_;
  std::int64_t origin_ns_;
  std::vector<Record> records_;
  std::vector<Open> open_;
  std::uint64_t dropped_ = 0;
  std::int64_t last_ns_ = 0;
  std::map<std::string, Stat, std::less<>> stats_;  // transparent: no key copy per end()
};

/// Per-layer sinks of the traced pass.
struct Layers {
  Spans spans{100000};
  /// Per-run loop time over events processed.
  std::vector<double> ns_per_event;
  /// Work counts, summed only over the first ops of the pass (see
  /// WorkloadSpec::count_ops) so they are exact for a given seed.
  std::map<std::string, std::pair<double, std::uint64_t>> counts;
  bool counting = false;
  /// Running totals over the whole pass.
  std::map<std::string, double> sums;
  /// Reused by the tracer-cost probe.
  trace::Tracer tracer;
  /// HostSpeed::overall_scale() of the pass, for report().
  double host_scale = 1.0;

  void count(const std::string& name, double v) {
    if (!counting) return;
    auto& [sum, n] = counts[name];
    sum += v;
    ++n;
  }
  double count_mean(const std::string& name) const;
};

/// RAII span; a null recorder makes it a no-op, so one code path serves the
/// untraced checks and the traced probes.
class Span {
 public:
  Span(Layers* l, const char* name, std::uint64_t op) : l_(l) {
    if (l_ != nullptr) l_->spans.begin(name, op);
  }
  ~Span() {
    if (l_ != nullptr) l_->spans.end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layers* l_;
};

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
  bool exact = false;         // deterministic for a seed: compare for equality
  std::uint64_t samples = 0;  // 0 = not a sample statistic
  int percentile = 0;         // 0 = not a percentile
};
using Metrics = std::map<std::string, Metric>;

/// A workload is a closed loop of ops on one client thread: each op is
/// issued only after the previous one returned, as a researcher's script or
/// a sweep client does. Op `i` draws its inputs from the workload seed and
/// `i` alone, so any two passes over the same ops see the same inputs.
class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Items one op completes (runs, devices or requests).
  virtual std::uint64_t items_per_op() const = 0;

  /// Untraced op through the public entry point; returns its output digest.
  virtual std::uint64_t run(std::uint64_t op) = 0;

  /// Untimed cycle run during set-up, on fixed inputs no timed op uses.
  virtual void warm_up() = 0;

  /// Correctness checks of the op `run` just completed, outside any timed
  /// region. Returns the number of failed items.
  virtual std::uint64_t check(std::uint64_t op) = 0;

  /// The same op split into spans around each public call. Must return the
  /// same digest as run(op).
  virtual std::uint64_t run_traced(std::uint64_t op, Layers& l) = 0;

  /// Per-layer probes after the traced op (outside the op span). Returns
  /// the number of failed items.
  virtual std::uint64_t probe(std::uint64_t op, Layers& l) = 0;

  /// Overwrites the workload-specific per-layer metrics this workload's
  /// layers produce (the rest stay at their workload_metric_defaults 0).
  virtual void report(const Layers& l, Metrics& out) const = 0;
};

struct WorkloadSpec {
  const char* name;
  const char* item;  // what one item is: "runs", "devices", "requests"
  /// Ops [0, count_ops) give the exact per-layer counts and the digest
  /// checked against golden_digests.txt; both passes always run them.
  std::uint64_t count_ops;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed);
};

const std::vector<WorkloadSpec>& workload_specs();

/// Every workload-specific per-layer metric at 0, for report() to overwrite
/// the ones whose layer the workload runs.
Metrics workload_metric_defaults();

}  // namespace simty::e2e
