// bench_e2e: runs one workload of the end-to-end benchmark in this process.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//             --golden FILE [--trace-out FILE]
//
// Untraced (--trace 0), it times a closed loop of ops for S seconds and
// reports the end-to-end metrics. Traced (--trace 1), it runs each op twice
// for S seconds — once untraced as the reference, once split into spans
// around every public call — plus per-layer probes, and reports the
// per-layer metrics. Either way it prints one JSON line on stdout and exits
// 1 when any output check failed (2 on bad usage). bench/e2e/run.py builds
// this binary and turns that line into the benchmark's report.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "e2e.hpp"

namespace simty::e2e {
namespace {

// Set-up (workload construction plus one untimed warm-up cycle) runs this
// many times: once before the timed pass, and then on spare instances spread
// evenly through it, so the median setup_s does not hang on the host's
// speed in the process's first tens of milliseconds.
constexpr int kSetups = 9;

// golden_digests.txt holds the ops [0, count_ops) digest at this seed.
constexpr std::uint64_t kCanonicalSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = kCanonicalSeed;
  double seconds = 0.0;
  bool trace = false;
  std::string golden;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: bench_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 --golden FILE [--trace-out FILE]\n",
               error.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds > 0.0) || a.seconds > 3600.0) {
        usage("bad --seconds " + value);
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--golden") {
      a.golden = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seconds || a.golden.empty()) {
    usage("--workload, --seconds and --golden are required");
  }
  return a;
}

/// Linear-interpolation percentile (numpy's default) of unsorted samples.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident set of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, restarts at exec, so the launcher's footprint is not counted.
double max_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

/// SIMTY's total-energy saving over NATIVE on the paper's own protocol:
/// seeds 1-3, 3 h, averaged. The paper measured ~20% (light) and ~25%
/// (heavy) on a Nexus 5; the benchmark reports the model's number beside
/// them, so a speed-up cannot silently change what is simulated.
double energy_saving_pct(exp::WorkloadKind workload) {
  double native_mj = 0.0;
  double simty_mj = 0.0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    exp::ExperimentConfig c;
    c.workload = workload;
    c.seed = seed;
    c.policy = exp::PolicyKind::kNative;
    native_mj += exp::run_experiment(c).energy.total().mj();
    c.policy = exp::PolicyKind::kSimty;
    simty_mj += exp::run_experiment(c).energy.total().mj();
  }
  return 100.0 * (1.0 - simty_mj / native_mj);
}

/// The expected digest for `workload`, or nullopt when the file lacks it.
std::optional<std::string> golden_for(const std::string& path,
                                      const std::string& workload) {
  std::ifstream in(path);
  if (!in) usage("cannot read golden digests " + path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    std::string digest;
    if (fields >> name >> digest && name == workload) return digest;
  }
  return std::nullopt;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Outcome {
  std::uint64_t ops = 0;
  std::uint64_t attempted = 0;  // items
  std::uint64_t failed = 0;     // items
  Digest prefix;                // digest of ops [0, count_ops)
};

/// Runs ops while `spent()` is under `seconds`, and at least `count_ops` of
/// them. `body` runs the op and returns its output digest; `after` runs the
/// op's checks and returns its failed items. A throw from either fails the
/// op's items.
template <typename Spent, typename Body, typename After>
void op_loop(const WorkloadSpec& spec, Workload& w, double seconds, Outcome& out,
             Spent spent, Body body, After after) {
  const std::uint64_t items = w.items_per_op();
  for (std::uint64_t op = 0; op < spec.count_ops || spent() < seconds; ++op) {
    ++out.ops;
    out.attempted += items;
    std::uint64_t bad = 0;
    try {
      const std::uint64_t digest = body(op);
      if (op < spec.count_ops) out.prefix.u64(digest);
      bad = after(op);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s op %llu: %s\n", spec.name,
                   static_cast<unsigned long long>(op), e.what());
      bad = items;
    }
    out.failed += std::min(bad, items);
  }
}

/// End-to-end metrics; host times are in reference-host units (HostSpeed),
/// with the raw host numbers alongside for information. Throughput is the
/// median over half-second windows: a window's ops share one host phase, so
/// the median rides out the phase changes the calibration catches late.
void timed_pass(const WorkloadSpec& spec, Workload& w, double seconds, HostSpeed& host,
                const std::function<void()>& set_up_again, Outcome& out, Metrics& m) {
  constexpr std::int64_t kWindowNs = 500'000'000;
  const double setup_every = seconds / kSetups;
  int extra_setups = 0;
  const auto items = static_cast<double>(w.items_per_op());
  std::vector<double> op_ms;
  std::vector<double> raw_ms;
  std::vector<double> window_rates;
  std::int64_t timed_ns = 0;
  std::int64_t window_raw_ns = 0;
  double window_ref_ns = 0.0;
  double window_items = 0.0;
  op_loop(
      spec, w, seconds, out, [&] { return static_cast<double>(timed_ns) / 1e9; },
      [&](std::uint64_t op) {
        const double scale = host.scale();
        const std::int64_t start = now_ns();
        const auto stop = [&] {
          const std::int64_t elapsed = now_ns() - start;
          timed_ns += elapsed;
          return elapsed;
        };
        std::uint64_t digest = 0;
        try {
          digest = w.run(op);
        } catch (...) {
          stop();
          throw;
        }
        const std::int64_t elapsed = stop();
        raw_ms.push_back(static_cast<double>(elapsed) / 1e6);
        op_ms.push_back(scale * raw_ms.back());
        window_raw_ns += elapsed;
        window_ref_ns += scale * static_cast<double>(elapsed);
        window_items += items;
        if (window_raw_ns >= kWindowNs) {
          window_rates.push_back(window_items / (window_ref_ns / 1e9));
          window_raw_ns = 0;
          window_ref_ns = 0.0;
          window_items = 0.0;
        }
        return digest;
      },
      [&](std::uint64_t op) {
        host.keep_up(timed_ns);
        for (; extra_setups < kSetups - 1 &&
               static_cast<double>(timed_ns) / 1e9 >= (extra_setups + 1) * setup_every;
             ++extra_setups) {
          set_up_again();
        }
        return w.check(op);
      });
  const double rss = max_rss_mb();
  if (window_rates.empty()) window_rates.push_back(window_items / (window_ref_ns / 1e9));
  const std::uint64_t n = op_ms.size();
  m["items_per_s"] = Metric{median(window_rates), "1/s", false, window_rates.size(), 50};
  m["op_ms_p50"] = Metric{percentile(op_ms, 50), "ms", false, n, 50};
  m["op_ms_p90"] = Metric{percentile(op_ms, 90), "ms", false, n, 90};
  m["raw.items_per_s"] = Metric{static_cast<double>(n) * items /
                                    (static_cast<double>(timed_ns) / 1e9),
                                "1/s", false, n};
  m["raw.op_ms_p50"] = Metric{percentile(raw_ms, 50), "ms", false, n, 50};
  m["raw.host_slowdown"] = Metric{1.0 / host.overall_scale(), "x"};
  m["max_rss_mb"] = Metric{rss, "MB"};
  m["energy_saving_pct_light"] =
      Metric{energy_saving_pct(exp::WorkloadKind::kLight), "%", true};
  m["energy_saving_pct_heavy"] =
      Metric{energy_saving_pct(exp::WorkloadKind::kHeavy), "%", true};
}

/// Per-layer metrics; span times are rescaled by the pass's median host
/// speed (HostSpeed) so they sit on the same scale as the end-to-end ones.
void traced_pass(const WorkloadSpec& spec, Workload& w, double seconds, HostSpeed& host,
                 Layers& l, Outcome& out, Metrics& m) {
  const std::int64_t start = now_ns();
  op_loop(
      spec, w, seconds, out,
      [&] { return static_cast<double>(now_ns() - start) / 1e9; },
      [&](std::uint64_t op) {
        l.counting = op < spec.count_ops;
        std::uint64_t reference = 0;
        std::uint64_t traced = 0;
        {
          const Span s(&l, "bench.reference", op);
          reference = w.run(op);
        }
        {
          const Span s(&l, "op", op);
          traced = w.run_traced(op, l);
        }
        if (traced != reference) {
          throw std::runtime_error("traced output differs from untraced");
        }
        return reference;
      },
      [&](std::uint64_t op) {
        std::uint64_t bad = 0;
        {
          const Span s(&l, "bench.probe", op);
          bad = w.probe(op, l);
        }
        host.keep_up(now_ns() - start);
        return bad;
      });
  l.host_scale = host.overall_scale();
  auto timing = [&](const char* metric, const char* span) {
    const auto it = l.spans.stats().find(span);
    m[metric] = Metric{l.host_scale * l.spans.median_us(span), "us", false,
                       it == l.spans.stats().end() ? 0 : it->second.us.size(), 50};
  };
  timing("apps.build_us", "apps.build");
  timing("exp.assemble_us", "exp.assemble");
  timing("sim.loop_us", "sim.loop");
  timing("exp.finalize_us", "exp.finalize");
  timing("alarm.rebatch_us", "alarm.rebatch");
  timing("snapshot.save_us", "snapshot.save");
  timing("snapshot.restore_us", "snapshot.restore");
  m["sim.ns_per_event"] = Metric{l.host_scale * median(l.ns_per_event), "ns", false,
                                 l.ns_per_event.size(), 50};
  for (const char* count :
       {"sim.events", "alarm.registrations", "alarm.deliveries", "alarm.batches",
        "alarm.realignments", "alarm.queue_len", "hw.wakeups", "hw.bus_notifications",
        "net.pages_answered", "net.wur_triggers"}) {
    m[count] = Metric{l.count_mean(count), "count", true};
  }
  m["snapshot.bytes"] = Metric{l.count_mean("snapshot.bytes"), "bytes", true};
  m["alarm.batch_fill"] =
      Metric{ratio(l.count_mean("alarm.deliveries"), l.count_mean("alarm.batches")),
             "ratio", true};
  m["hw.notifications_per_event"] =
      Metric{ratio(l.count_mean("hw.bus_notifications"), l.count_mean("sim.events")),
             "ratio", true};
  m["trace.tracer_overhead_pct"] =
      Metric{100.0 * (ratio(l.sums["trace.on_ns"], l.sums["trace.off_ns"]) - 1.0), "%"};
  m["bench.trace_overhead_pct"] = Metric{
      100.0 * (ratio(l.spans.total_us("op"), l.spans.total_us("bench.reference")) - 1.0),
      "%"};
  m["raw.host_slowdown"] = Metric{1.0 / l.host_scale, "x"};
  for (auto& [name, metric] : workload_metric_defaults()) m[name] = metric;
  w.report(l, m);
}

void print_json(const Args& a, const WorkloadSpec& spec, const Outcome& out,
                const std::string& seed1_digest, const Metrics& m, const Layers* l) {
  std::string s = "{\"workload\":\"" + std::string(spec.name) +
                  "\",\"seed\":" + std::to_string(a.seed) +
                  ",\"trace\":" + (a.trace ? "1" : "0") +
                  ",\"correct\":" + (out.failed == 0 ? "true" : "false") +
                  ",\"attempted\":" + std::to_string(out.attempted) +
                  ",\"failed\":" + std::to_string(out.failed) +
                  ",\"ops\":" + std::to_string(out.ops) + ",\"item\":\"" + spec.item +
                  "\",\"prefix_digest\":\"" + hex(out.prefix.value()) +
                  "\",\"seed1_digest\":\"" + seed1_digest + "\",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    s += (first ? "\"" : ",\"") + name + "\":{\"value\":" + number(metric.value) +
         ",\"unit\":\"" + metric.unit +
         "\",\"exact\":" + (metric.exact ? "true" : "false");
    if (metric.samples > 0) s += ",\"samples\":" + std::to_string(metric.samples);
    if (metric.percentile > 0) {
      s += ",\"percentile\":" + std::to_string(metric.percentile);
    }
    s += "}";
    first = false;
  }
  s += "}";
  if (l != nullptr) {
    s += ",\"spans\":{";
    first = true;
    for (const auto& [name, stat] : l->spans.stats()) {
      s += (first ? "\"" : ",\"") + name +
           "\":{\"count\":" + std::to_string(stat.us.size()) +
           ",\"median_us\":" + number(l->spans.median_us(name)) +
           ",\"self_us\":" + number(stat.self_us) + "}";
      first = false;
    }
    s += "}";
  }
  s += "}\n";
  std::fputs(s.c_str(), stdout);
}

int bench_main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const auto& specs = workload_specs();
  const auto spec_it =
      std::find_if(specs.begin(), specs.end(),
                   [&](const WorkloadSpec& s) { return a.workload == s.name; });
  if (spec_it == specs.end()) usage("unknown workload " + a.workload);
  const WorkloadSpec& spec = *spec_it;
  const std::optional<std::string> golden = golden_for(a.golden, spec.name);

  HostSpeed host;
  std::vector<double> setups;
  const auto set_up = [&] {
    host.keep_up(0);
    host.sample();
    const double scale = host.scale();
    const std::int64_t start = now_ns();
    std::unique_ptr<Workload> fresh = spec.make(a.seed);
    fresh->warm_up();
    setups.push_back(scale * static_cast<double>(now_ns() - start) / 1e9);
    return fresh;
  };
  const std::unique_ptr<Workload> w = set_up();

  Outcome out;
  Metrics m;
  std::unique_ptr<Layers> layers;
  if (a.trace) {
    layers = std::make_unique<Layers>();
    traced_pass(spec, *w, a.seconds, host, *layers, out, m);
  } else {
    timed_pass(spec, *w, a.seconds, host, [&] { set_up(); }, out, m);
    m["setup_s"] = Metric{median(setups), "s", false, setups.size(), 50};
  }

  // The golden digest is the ops [0, count_ops) digest at the canonical seed.
  Digest canonical = out.prefix;
  if (a.seed != kCanonicalSeed) {
    canonical = Digest{};
    const std::unique_ptr<Workload> g = spec.make(kCanonicalSeed);
    for (std::uint64_t op = 0; op < spec.count_ops; ++op) canonical.u64(g->run(op));
  }
  if (!golden || *golden != hex(canonical.value())) {
    std::fprintf(stderr, "error: %s golden digest %s, expected %s\n", spec.name,
                 hex(canonical.value()).c_str(), golden ? golden->c_str() : "(none)");
    out.failed = std::min(out.attempted, out.failed + spec.count_ops * w->items_per_op());
  }

  if (layers != nullptr && !a.trace_out.empty()) {
    std::ofstream trace(a.trace_out);
    trace << layers->spans.chrome_json();
    if (!trace) usage("cannot write " + a.trace_out);
  }
  print_json(a, spec, out, hex(canonical.value()), m, layers.get());
  return out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace simty::e2e

int main(int argc, char** argv) { return simty::e2e::bench_main(argc, argv); }
