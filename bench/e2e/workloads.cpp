// The four workloads of the end-to-end benchmark; README.md gives the
// rationale for each.
//
// Every traced path re-does the untraced op through the same public calls,
// split where the public API allows (exp::Run's constructor, then
// Simulator::run_until to the horizon, then Run::finish), and must reproduce
// the untraced output digest bit for bit.

#include <sched.h>

#include <algorithm>
#include <optional>
#include <utility>

#include "apps/workload.hpp"
#include "common/arena.hpp"
#include "e2e.hpp"
#include "exp/run.hpp"
#include "fleet/fleet_runner.hpp"
#include "fleet/report.hpp"
#include "hw/power_bus.hpp"
#include "serve/serve_core.hpp"

namespace simty::e2e {
namespace {

// Seed streams: each workload derives its op seeds from its own stream.
// Warm-up inputs come from a stream no timed op draws from, with seed 0
// whatever --seed is, so set-up does the same work on every seed.
enum Stream : std::uint64_t {
  kPaperStream = 1,
  kPagingStream,
  kFleetStream,
  kServeStream,
  kWarmUpStream,
};

/// Counts PowerBus notifications as one more listener on the run's bus.
class BusCounter final : public hw::PowerListener {
 public:
  void on_device_state(TimePoint, hw::DeviceState, Power) override { ++n; }
  void on_component_power(TimePoint, hw::Component, bool, Power) override { ++n; }
  void on_impulse(TimePoint, Energy, hw::ImpulseKind, std::string_view) override {
    ++n;
  }
  std::uint64_t n = 0;
};

/// One run split into its three public phases, each in its own span, plus
/// the run's work counts. Same output as exp::run_experiment: finish() after
/// run_until(horizon) has no event left to step.
exp::RunResult decomposed_run(exp::ExperimentConfig config, std::uint64_t op,
                              Layers& l) {
  BusCounter bus;
  config.extra_power_listener = &bus;
  std::optional<exp::Run> run;
  {
    const Span s(&l, "exp.assemble", op);
    run.emplace(config);
  }
  {
    const Span s(&l, "sim.loop", op);
    run->simulator().run_until(run->horizon());
  }
  const double loop_ns = static_cast<double>(l.spans.last_ns());
  exp::RunResult result;
  {
    const Span s(&l, "exp.finalize", op);
    result = run->finish();
  }
  const auto events = static_cast<double>(run->simulator().events_processed());
  if (events > 0) l.ns_per_event.push_back(loop_ns / events);
  const alarm::AlarmManager::Stats& stats = run->alarm_manager().stats();
  l.count("sim.events", events);
  l.count("alarm.registrations", static_cast<double>(stats.registrations));
  l.count("alarm.deliveries", static_cast<double>(stats.deliveries));
  l.count("alarm.batches", static_cast<double>(stats.batches_delivered));
  l.count("alarm.realignments", static_cast<double>(stats.realignments));
  l.count("hw.wakeups", static_cast<double>(run->device().wakeup_count()));
  l.count("hw.bus_notifications", static_cast<double>(bus.n));
  l.count("net.pages_answered", result.pages_answered);
  l.count("net.wur_triggers", result.wur_triggers);
  return result;
}

/// Saves `config`'s run at the quiescent point nearest mid-horizon,
/// restores it into a fresh Run and finishes that; true when the resumed
/// result equals `expected` bit for bit. Traced (`l` non-null), it also
/// times save, restore and rebatch_all on the paused throwaway run.
bool roundtrip_matches(const exp::ExperimentConfig& config,
                       const exp::RunResult& expected, std::uint64_t op,
                       Layers* l) {
  exp::Run paused(config);
  paused.advance_to_quiescent(TimePoint::origin() + config.duration / 2);
  std::string bytes;
  {
    const Span s(l, "snapshot.save", op);
    bytes = paused.save_snapshot();
  }
  exp::Run resumed(config);
  {
    const Span s(l, "snapshot.restore", op);
    resumed.restore_snapshot(bytes);
  }
  if (l != nullptr) {
    l->count("snapshot.bytes", static_cast<double>(bytes.size()));
    alarm::AlarmManager& manager = paused.alarm_manager();
    l->count("alarm.queue_len",
             static_cast<double>(manager.queue(alarm::AlarmKind::kWakeup).size() +
                                 manager.queue(alarm::AlarmKind::kNonWakeup).size()));
    const Span s(l, "alarm.rebatch", op);
    manager.rebatch_all();
  }
  return identical(resumed.finish(), expected);
}

/// The workload build exp::Run does inside its constructor, on its own.
apps::Workload build_workload(const exp::ExperimentConfig& c) {
  apps::WorkloadConfig wc;
  wc.seed = c.seed;
  wc.beta = c.beta;
  if (!c.custom_profiles.empty()) {
    return apps::Workload::from_profiles(c.custom_profiles, wc);
  }
  switch (c.workload) {
    case exp::WorkloadKind::kLight: return apps::Workload::light(wc);
    case exp::WorkloadKind::kHeavy: return apps::Workload::heavy(wc);
    case exp::WorkloadKind::kSynthetic:
      return apps::Workload::synthetic(c.synthetic_apps, wc);
  }
  return apps::Workload::light(wc);
}

/// Per-layer probes of one run config, outside the op span: the standalone
/// workload build, the snapshot round trip, and the structured tracer's
/// cost (the config run with and without a tracer, order alternating by
/// op). Returns 1 when any output differs from `expected`.
std::uint64_t probe_run(const exp::ExperimentConfig& config,
                        const exp::RunResult& expected, std::uint64_t op,
                        Layers& l) {
  {
    std::optional<apps::Workload> built;
    const Span s(&l, "apps.build", op);
    built.emplace(build_workload(config));
  }
  bool ok = roundtrip_matches(config, expected, op, &l);
  exp::ExperimentConfig traced = config;
  traced.tracer = &l.tracer;
  for (int pass = 0; pass < 2; ++pass) {
    const bool with_tracer = (pass == 0) == (op % 2 == 0);
    l.tracer.clear();
    const std::int64_t start = now_ns();
    const exp::RunResult r = exp::run_experiment(with_tracer ? traced : config);
    l.sums[with_tracer ? "trace.on_ns" : "trace.off_ns"] +=
        static_cast<double>(now_ns() - start);
    ok = ok && identical(r, expected);
  }
  return ok ? 0 : 1;
}

// --- paper-3h and paging-3h: independent runs -------------------------------

/// One op = one seed's set of configs, run one after another.
class RunSetWorkload final : public Workload {
 public:
  RunSetWorkload(std::uint64_t seed, Stream stream,
                 std::vector<exp::ExperimentConfig> templates)
      : seed_(seed), stream_(stream), templates_(std::move(templates)) {}

  std::uint64_t items_per_op() const override { return templates_.size(); }

  std::uint64_t run(std::uint64_t op) override { return run_set(op_seed(op)); }

  void warm_up() override { run_set(derive_seed(0, kWarmUpStream, stream_)); }

  std::uint64_t check(std::uint64_t op) override {
    std::uint64_t failed = 0;
    for (std::size_t k = 0; k < templates_.size(); ++k) {
      if ((op * templates_.size() + k) % kRoundtripEvery != 0) continue;
      if (!roundtrip_matches(config(op_seed(op), k), results_[k], op, nullptr)) ++failed;
    }
    return failed;
  }

  std::uint64_t run_traced(std::uint64_t op, Layers& l) override {
    Digest d;
    results_.clear();
    for (std::size_t k = 0; k < templates_.size(); ++k) {
      const Span s(&l, "exp.run", op);
      results_.push_back(decomposed_run(config(op_seed(op), k), op, l));
      d.result(results_.back());
    }
    return d.value();
  }

  std::uint64_t probe(std::uint64_t op, Layers& l) override {
    // One config per op, round robin, keeps the probes to ~40% of an op.
    const std::size_t k = op % templates_.size();
    return probe_run(config(op_seed(op), k), results_[k], op, l);
  }

  void report(const Layers&, Metrics&) const override {}

 private:
  // Every 100th run is re-run as save -> restore -> finish.
  static constexpr std::uint64_t kRoundtripEvery = 100;

  std::uint64_t op_seed(std::uint64_t op) const {
    return derive_seed(seed_, stream_, op);
  }

  exp::ExperimentConfig config(std::uint64_t run_seed, std::size_t k) const {
    exp::ExperimentConfig c = templates_[k];
    c.seed = run_seed;
    return c;
  }

  std::uint64_t run_set(std::uint64_t run_seed) {
    Digest d;
    results_.clear();
    for (std::size_t k = 0; k < templates_.size(); ++k) {
      results_.push_back(exp::run_experiment(config(run_seed, k)));
      d.result(results_.back());
    }
    return d.value();
  }

  std::uint64_t seed_;
  Stream stream_;
  std::vector<exp::ExperimentConfig> templates_;
  std::vector<exp::RunResult> results_;  // of the last op, for check/probe
};

std::unique_ptr<Workload> make_paper(std::uint64_t seed) {
  std::vector<exp::ExperimentConfig> templates;
  for (const exp::WorkloadKind w :
       {exp::WorkloadKind::kLight, exp::WorkloadKind::kHeavy}) {
    for (const exp::PolicyKind p : {exp::PolicyKind::kNative, exp::PolicyKind::kSimty,
                                    exp::PolicyKind::kExact,
                                    exp::PolicyKind::kSimtyDuration}) {
      exp::ExperimentConfig c;
      c.workload = w;
      c.policy = p;
      templates.push_back(c);
    }
  }
  return std::make_unique<RunSetWorkload>(seed, kPaperStream, std::move(templates));
}

std::unique_ptr<Workload> make_paging(std::uint64_t seed) {
  exp::ExperimentConfig drx;
  drx.workload = exp::WorkloadKind::kLight;
  drx.policy = exp::PolicyKind::kSimty;
  drx.drx.emplace();  // DRX-only, 1.28 s paging cycle
  exp::ExperimentConfig wur = drx;
  wur.drx->wur = true;
  wur.drx->wur_delay_budget = Duration::millis(320);
  return std::make_unique<RunSetWorkload>(seed, kPagingStream,
                                          std::vector<exp::ExperimentConfig>{drx, wur});
}

// --- fleet-3min ---------------------------------------------------------------

/// Worker threads for the parallel fleet leg: 4, or fewer on a smaller
/// CPU allowance.
int fleet_jobs() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::clamp(cpus, 1, 4);
}

std::uint64_t digest_of(const std::string& s) {
  Digest d;
  d.bytes(s);
  return d.value();
}

/// One op = one 10^4-device fleet (default cohorts, 3-minute standby, no
/// system alarms, SIMTY) run serially. The fleet_jobs()-worker leg runs in
/// the checks and the traced pass: on a shared host its wall time swings
/// with other tenants' load far more than the serial leg's.
class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(std::uint64_t seed) : seed_(seed), jobs_(fleet_jobs()) {
    base_.cohorts = fleet::default_cohorts();
    for (fleet::CohortSpec& c : base_.cohorts) {
      c.standby = Duration::minutes(3);
      c.system_alarms = false;
    }
    base_.policy = exp::PolicyKind::kSimty;
  }

  std::uint64_t items_per_op() const override { return kDevices; }

  std::uint64_t run(std::uint64_t op) override {
    csv_ = run_csv(op_seed(op), 1, kDevices);
    return digest_of(csv_);
  }

  void warm_up() override {
    run_csv(derive_seed(0, kWarmUpStream, kFleetStream), 1, kWarmUpDevices);
  }

  std::uint64_t check(std::uint64_t op) override {
    if (op % kParallelCheckEvery != 0) return 0;
    return run_csv(op_seed(op), jobs_, kDevices) == csv_ ? 0 : kDevices;
  }

  /// Serial device-by-device replay of run_fleet through its public parts:
  /// the same shard partition, per-shard arena reuse and merge tree, so the
  /// CSV must match byte for byte.
  std::uint64_t run_traced(std::uint64_t op, Layers& l) override {
    const fleet::FleetConfig fc = config(op_seed(op), 1, kDevices);
    const std::vector<std::uint64_t> counts =
        fleet::apportion_devices(fc.devices, fc.cohorts);
    fleet::FleetResult result;
    result.policy_name = exp::to_string(fc.policy);
    result.devices = fc.devices;
    probes_.clear();
    std::uint64_t device_no = 0;
    for (std::size_t c = 0; c < fc.cohorts.size(); ++c) {
      const fleet::CohortSpec& spec = fc.cohorts[c];
      std::vector<fleet::CohortAggregate> shards;
      for (std::uint64_t begin = 0; begin < counts[c]; begin += fc.shard_devices) {
        fleet::CohortAggregate shard(spec.name);
        common::Arena arena;
        const std::uint64_t end = std::min(begin + fc.shard_devices, counts[c]);
        for (std::uint64_t d = begin; d < end; ++d, ++device_no) {
          const Span device(&l, "fleet.device", op);
          std::optional<fleet::DeviceSample> sample;
          {
            const Span s(&l, "fleet.sample", op);
            sample.emplace(fleet::sample_device(spec, fc.seed, d));
          }
          arena.reset();
          exp::ExperimentConfig cfg;
          {
            const Span s(&l, "fleet.config", op);
            cfg = fleet::device_config(spec, *sample, fc.policy, fc.similarity);
          }
          const bool probed = device_no % kProbeEvery == 0;
          if (probed) probes_.emplace_back(cfg, exp::RunResult{});
          cfg.arena_opts.arena = &arena;
          const exp::RunResult r = decomposed_run(std::move(cfg), op, l);
          if (probed) probes_.back().second = r;
          const Span s(&l, "fleet.aggregate", op);
          shard.add(fleet::device_metrics(r));
        }
        shards.push_back(std::move(shard));
      }
      if (shards.empty()) shards.emplace_back(spec.name);  // as run_fleet does
      result.cohorts.push_back(fleet::merge_pairwise(std::move(shards)));
    }
    std::vector<fleet::CohortAggregate> all(result.cohorts);
    result.overall = fleet::merge_pairwise(std::move(all));
    result.overall.cohort = "ALL";
    traced_digest_ = digest_of(fleet::fleet_csv({result}));
    return traced_digest_;
  }

  std::uint64_t probe(std::uint64_t op, Layers& l) override {
    const std::int64_t start = now_ns();
    const std::string parallel = run_csv(op_seed(op), jobs_, kDevices);
    l.sums["fleet.parallel_ns"] += static_cast<double>(now_ns() - start);
    l.sums["fleet.parallel_devices"] += static_cast<double>(kDevices);
    std::uint64_t failed = digest_of(parallel) == traced_digest_ ? 0 : kDevices;
    for (const auto& [cfg, result] : probes_) failed += probe_run(cfg, result, op, l);
    return failed;
  }

  void report(const Layers& l, Metrics& out) const override {
    const double serial = static_cast<double>(kDevices) /
                          (l.spans.median_us("bench.reference") / 1e6);
    const double parallel =
        l.sums.at("fleet.parallel_devices") / (l.sums.at("fleet.parallel_ns") / 1e9);
    out["fleet.serial_devices_per_s"].value = serial / l.host_scale;
    out["fleet.parallel_efficiency"].value = parallel / (jobs_ * serial);
    const double op_us = l.spans.total_us("op");
    for (const char* layer : {"fleet.sample", "fleet.config", "fleet.aggregate"}) {
      out[std::string(layer) + "_pct"].value = 100.0 * l.spans.total_us(layer) / op_us;
    }
  }

 private:
  static constexpr std::uint64_t kDevices = 10000;
  static constexpr std::uint64_t kWarmUpDevices = 2048;
  // Every 16th fleet is re-run at fleet_jobs() workers and its CSV compared
  // byte for byte.
  static constexpr std::uint64_t kParallelCheckEvery = 16;
  // Traced pass: every 100th device also goes through probe_run.
  static constexpr std::uint64_t kProbeEvery = 100;

  std::uint64_t op_seed(std::uint64_t op) const {
    return derive_seed(seed_, kFleetStream, op);
  }

  fleet::FleetConfig config(std::uint64_t fleet_seed, int jobs,
                            std::uint64_t devices) const {
    fleet::FleetConfig fc = base_;
    fc.seed = fleet_seed;
    fc.jobs = jobs;
    fc.devices = devices;
    return fc;
  }

  std::string run_csv(std::uint64_t fleet_seed, int jobs, std::uint64_t devices) const {
    return fleet::fleet_csv({fleet::run_fleet(config(fleet_seed, jobs, devices))});
  }

  std::uint64_t seed_;
  int jobs_;
  fleet::FleetConfig base_;
  std::string csv_;                // last untraced op's CSV, for check()
  std::uint64_t traced_digest_ = 0;
  std::vector<std::pair<exp::ExperimentConfig, exp::RunResult>> probes_;
};

std::unique_ptr<Workload> make_fleet(std::uint64_t seed) {
  return std::make_unique<FleetWorkload>(seed);
}

// --- serve-sweep --------------------------------------------------------------

void digest_response(Digest& d, const serve::Response& r, bool with_provenance) {
  if (with_provenance) {
    d.u64(r.cached ? 1 : 0);
    d.u64(r.warm_started ? 1 : 0);
  }
  d.bytes(r.policy_name);
  for (const double v :
       {r.total_j, r.awake_total_j, r.average_power_mw, r.projected_standby_hours,
        r.delay_perceptible, r.delay_imperceptible, r.delay_imperceptible_p95,
        r.deliveries, r.batches_delivered, r.one_shots, r.awake_seconds,
        r.asleep_seconds, r.worst_gap_ratio}) {
    d.f64(v);
  }
  d.u64(r.gap_violations);
  d.u64(r.perceptible_window_misses);
}

/// Equal metric rows, provenance flags aside.
bool same_rows(const serve::Response& a, const serve::Response& b) {
  Digest da;
  Digest db;
  digest_response(da, a, false);
  digest_response(db, b, false);
  return da.value() == db.value();
}

/// The reply a run's result should produce (the mapping ServeCore applies).
serve::Response response_of(const exp::RunResult& r) {
  serve::Response resp;
  resp.policy_name = r.policy_name;
  resp.total_j = r.energy.total().joules_f();
  resp.awake_total_j = r.energy.awake_total().joules_f();
  resp.average_power_mw = r.average_power_mw;
  resp.projected_standby_hours = r.projected_standby_hours;
  resp.delay_perceptible = r.delay_perceptible;
  resp.delay_imperceptible = r.delay_imperceptible;
  resp.delay_imperceptible_p95 = r.delay_imperceptible_p95;
  resp.deliveries = r.deliveries;
  resp.batches_delivered = r.batches_delivered;
  resp.one_shots = r.one_shots;
  resp.awake_seconds = r.awake_seconds;
  resp.asleep_seconds = r.asleep_seconds;
  resp.worst_gap_ratio = r.worst_gap_ratio;
  resp.gap_violations = r.gap_violations;
  resp.perceptible_window_misses = r.perceptible_window_misses;
  return resp;
}

/// The run a request describes (the mapping ServeCore applies).
exp::ExperimentConfig config_of(const serve::Request& q) {
  exp::ExperimentConfig c;
  c.policy = q.policy;
  c.workload = q.workload;
  c.duration = q.duration;
  c.seed = q.seed;
  c.doze = q.doze;
  c.system_alarms = q.system_alarms;
  c.beta_switch = q.beta_switch;
  return c;
}

/// One op = one client sweep against an in-process ServeCore: a fresh seed's
/// 8-point β-sweep (switch at 172 min of 3 h, light SIMTY), then the same 8
/// requests again — 1 cold, 7 warm-started and 8 cached replies. A daemon
/// session serves kSweepsPerSession sweeps, so the unbounded result cache
/// (and with it max_rss_mb) stops growing with run length.
class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(std::uint64_t seed) : seed_(seed), core_(new_core()) {}

  std::uint64_t items_per_op() const override { return 2 * kPoints; }

  std::uint64_t run(std::uint64_t op) override {
    if (op % kSweepsPerSession == 0) core_ = new_core();
    return sweep(*core_, requests(op_seed(op)));
  }

  void warm_up() override {
    sweep(*core_, requests(derive_seed(0, kWarmUpStream, kServeStream)));
  }

  std::uint64_t check(std::uint64_t op) override {
    std::uint64_t failed = 0;
    for (std::size_t k = 0; k < kPoints; ++k) {
      const serve::Response& first = replies_[k];
      const serve::Response& again = replies_[k + kPoints];
      const bool provenance =
          !first.cached && first.warm_started == (k > 0) && again.cached;
      if (!provenance || !same_rows(first, again)) ++failed;
    }
    if (op % kColdCheckEvery == 0) {
      const std::vector<serve::Request> qs = requests(op_seed(op));
      for (std::size_t k = 1; k < kPoints; ++k) {
        const serve::Response cold = response_of(exp::run_experiment(config_of(qs[k])));
        if (!same_rows(cold, replies_[k])) ++failed;
      }
    }
    return failed;
  }

  std::uint64_t run_traced(std::uint64_t op, Layers& l) override {
    if (op % kSweepsPerSession == 0) {
      if (traced_core_ != nullptr) add_stats(finished_stats_, traced_core_->stats());
      traced_core_ = new_core();
    }
    Digest d;
    traced_replies_.clear();
    for (const serve::Request& q : requests(op_seed(op))) {
      const Span request(&l, "serve.request", op);
      std::string frame;
      serve::Request decoded;
      serve::Response resp;
      serve::Response reply;
      {
        const Span s(&l, "serve.codec", op);
        frame = serve::encode_request(q);
      }
      {
        const Span s(&l, "serve.codec", op);
        decoded = serve::decode_request(frame);
      }
      {
        const Span s(&l, "serve.handle", op);
        resp = traced_core_->handle(decoded);
        l.spans.rename(resp.cached         ? "serve.handle.cached"
                       : resp.warm_started ? "serve.handle.warm"
                                           : "serve.handle.cold");
      }
      {
        const Span s(&l, "serve.codec", op);
        frame = serve::encode_response(resp);
      }
      {
        const Span s(&l, "serve.codec", op);
        reply = serve::decode_response(frame);
      }
      digest_response(d, reply, true);
      traced_replies_.push_back(reply);
    }
    return d.value();
  }

  std::uint64_t probe(std::uint64_t op, Layers& l) override {
    // The cold request's run, decomposed like every other workload's.
    const exp::ExperimentConfig cold = config_of(requests(op_seed(op)).front());
    const exp::RunResult r = decomposed_run(cold, op, l);
    const std::uint64_t failed =
        same_rows(response_of(r), traced_replies_.front()) ? 0 : 1;
    return failed + probe_run(cold, r, op, l);
  }

  void report(const Layers& l, Metrics& out) const override {
    serve::ServeStats total = finished_stats_;
    add_stats(total, traced_core_->stats());
    out["serve.result_hit_ratio"].value =
        static_cast<double>(total.result_hits) / static_cast<double>(total.requests);
    out["serve.prefix_hit_ratio"].value =
        static_cast<double>(total.prefix_hits) /
        static_cast<double>(total.prefix_hits + total.prefix_misses);
    const double op_us = l.spans.total_us("op");
    for (const char* reply : {"cold", "warm", "cached"}) {
      out["serve." + std::string(reply) + "_pct"].value =
          100.0 * l.spans.total_us("serve.handle." + std::string(reply)) / op_us;
    }
    out["serve.codec_pct"].value = 100.0 * l.spans.total_us("serve.codec") / op_us;
  }

 private:
  static constexpr std::size_t kPoints = 8;
  static constexpr std::uint64_t kSweepsPerSession = 1024;
  // Every 50th sweep, each warm reply is checked against a cold run.
  static constexpr std::uint64_t kColdCheckEvery = 50;
  static constexpr std::size_t kMaxSnapshots = 8;

  static void add_stats(serve::ServeStats& into, const serve::ServeStats& s) {
    into.requests += s.requests;
    into.result_hits += s.result_hits;
    into.prefix_hits += s.prefix_hits;
    into.prefix_misses += s.prefix_misses;
  }

  std::uint64_t op_seed(std::uint64_t op) const {
    return derive_seed(seed_, kServeStream, op);
  }

  static std::unique_ptr<serve::ServeCore> new_core() {
    return std::make_unique<serve::ServeCore>(kMaxSnapshots);
  }

  static std::vector<serve::Request> requests(std::uint64_t sweep_seed) {
    std::vector<serve::Request> qs;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t k = 0; k < kPoints; ++k) {
        serve::Request q;
        q.policy = exp::PolicyKind::kSimty;
        q.workload = exp::WorkloadKind::kLight;
        q.duration = Duration::hours(3);
        q.seed = sweep_seed;
        q.beta_switch = exp::ExperimentConfig::BetaSwitch{
            Duration::minutes(172), 0.1 + 0.1 * static_cast<double>(k)};
        qs.push_back(q);
      }
    }
    return qs;
  }

  /// The client side of one sweep: frame, send, decode, wait, next.
  std::uint64_t sweep(serve::ServeCore& core, const std::vector<serve::Request>& qs) {
    Digest d;
    replies_.clear();
    for (const serve::Request& q : qs) {
      const std::string reply = core.handle_frame(serve::encode_request(q));
      replies_.push_back(serve::decode_response(reply));
      digest_response(d, replies_.back(), true);
    }
    return d.value();
  }

  std::uint64_t seed_;
  std::unique_ptr<serve::ServeCore> core_;
  std::unique_ptr<serve::ServeCore> traced_core_;
  serve::ServeStats finished_stats_;  // traced sessions already closed
  std::vector<serve::Response> replies_;
  std::vector<serve::Response> traced_replies_;
};

std::unique_ptr<Workload> make_serve(std::uint64_t seed) {
  return std::make_unique<ServeWorkload>(seed);
}

}  // namespace

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"paper-3h", "runs", 4, make_paper},
      {"fleet-3min", "devices", 1, make_fleet},
      {"paging-3h", "runs", 4, make_paging},
      {"serve-sweep", "requests", 4, make_serve},
  };
  return specs;
}

Metrics workload_metric_defaults() {
  Metrics m;
  for (const char* name : {"fleet.sample_pct", "fleet.config_pct", "fleet.aggregate_pct",
                           "serve.cold_pct", "serve.warm_pct", "serve.cached_pct",
                           "serve.codec_pct"}) {
    m[name] = Metric{0.0, "%"};
  }
  m["fleet.serial_devices_per_s"] = Metric{0.0, "1/s"};
  m["fleet.parallel_efficiency"] = Metric{0.0, "ratio"};
  m["serve.result_hit_ratio"] = Metric{0.0, "ratio", true};
  m["serve.prefix_hit_ratio"] = Metric{0.0, "ratio", true};
  return m;
}

}  // namespace simty::e2e
