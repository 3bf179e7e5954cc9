#include "serve/serve_core.hpp"

#include <utility>

#include "common/check.hpp"
#include "exp/run.hpp"
#include "snapshot/snapshot.hpp"

namespace simty::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = kFnvOffset;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

exp::ExperimentConfig to_config(const Request& req) {
  exp::ExperimentConfig c;
  c.policy = req.policy;
  c.workload = req.workload;
  c.duration = req.duration;
  c.seed = req.seed;
  c.doze = req.doze;
  c.system_alarms = req.system_alarms;
  c.beta_switch = req.beta_switch;
  return c;
}

Response to_response(const exp::RunResult& r) {
  Response resp;
  resp.policy_name = r.policy_name;
  Response::for_each_metric([&](const char*, auto member, auto source) {
    resp.*member = source(r);
  });
  return resp;
}

void put(snapshot::Writer& w, double v) { w.f64(v); }
void put(snapshot::Writer& w, std::uint64_t v) { w.u64(v); }
void get(snapshot::SectionReader& s, double& v) { v = s.f64(); }
void get(snapshot::SectionReader& s, std::uint64_t& v) { v = s.u64(); }

}  // namespace

std::string encode_request(const Request& req) {
  snapshot::Writer w;
  w.begin_section("simty-request", kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(req.policy));
  w.u8(static_cast<std::uint8_t>(req.workload));
  w.i64(req.duration.us());
  w.u64(req.seed);
  w.boolean(req.doze);
  w.boolean(req.system_alarms);
  w.boolean(req.beta_switch.has_value());
  w.i64(req.beta_switch ? req.beta_switch->at.us() : 0);
  w.f64(req.beta_switch ? req.beta_switch->beta : 0.0);
  w.end_section();
  return w.finish();
}

Request decode_request(const std::string& bytes) {
  const snapshot::Reader reader(bytes);
  snapshot::SectionReader s = reader.section("simty-request", kProtocolVersion);
  Request req;
  const std::uint8_t policy = s.u8();
  const auto fixed = static_cast<std::uint8_t>(exp::PolicyKind::kFixedInterval);
  SIMTY_CHECK_MSG(policy <= fixed, "serve: unknown policy kind");
  SIMTY_CHECK_MSG(policy != fixed, "serve: requests carry no fixed_interval");
  req.policy = static_cast<exp::PolicyKind>(policy);
  const std::uint8_t workload = s.u8();
  SIMTY_CHECK_MSG(
      workload <= static_cast<std::uint8_t>(exp::WorkloadKind::kSynthetic),
      "serve: unknown workload kind");
  req.workload = static_cast<exp::WorkloadKind>(workload);
  const std::int64_t duration_us = s.i64();
  SIMTY_CHECK_MSG(duration_us > 0, "serve: duration must be positive");
  req.duration = Duration::micros(duration_us);
  req.seed = s.u64();
  req.doze = s.boolean();
  req.system_alarms = s.boolean();
  const bool has_switch = s.boolean();
  const std::int64_t at_us = s.i64();
  const double beta = s.f64();
  if (has_switch) {
    SIMTY_CHECK_MSG(at_us >= 0 && at_us <= duration_us,
                    "serve: beta switch outside the run");
    SIMTY_CHECK_MSG(beta > 0.0, "serve: beta must be positive");
    req.beta_switch =
        exp::ExperimentConfig::BetaSwitch{Duration::micros(at_us), beta};
  }
  SIMTY_CHECK_MSG(s.at_end(), "serve: trailing bytes in request");
  return req;
}

std::string encode_response(const Response& resp) {
  snapshot::Writer w;
  w.begin_section("simty-response", kProtocolVersion);
  w.boolean(resp.cached);
  w.boolean(resp.warm_started);
  w.str(resp.policy_name);
  Response::for_each_metric(
      [&](const char*, auto member, auto) { put(w, resp.*member); });
  w.end_section();
  return w.finish();
}

Response decode_response(const std::string& bytes) {
  const snapshot::Reader reader(bytes);
  snapshot::SectionReader s =
      reader.section("simty-response", kProtocolVersion);
  Response resp;
  resp.cached = s.boolean();
  resp.warm_started = s.boolean();
  resp.policy_name = s.str();
  Response::for_each_metric(
      [&](const char*, auto member, auto) { get(s, resp.*member); });
  SIMTY_CHECK_MSG(s.at_end(), "serve: trailing bytes in response");
  return resp;
}

std::string encode_stats_request() {
  snapshot::Writer w;
  w.begin_section("simty-stats", kProtocolVersion);
  w.end_section();
  return w.finish();
}

std::string encode_stats(const ServeStats& stats) {
  snapshot::Writer w;
  w.begin_section("simty-stats", kProtocolVersion);
  ServeStats::for_each_counter(
      [&](const char*, auto member) { w.u64(stats.*member); });
  w.end_section();
  return w.finish();
}

ServeStats decode_stats(const std::string& bytes) {
  const snapshot::Reader reader(bytes);
  snapshot::SectionReader s = reader.section("simty-stats", kProtocolVersion);
  ServeStats stats;
  ServeStats::for_each_counter(
      [&](const char*, auto member) { stats.*member = s.u64(); });
  SIMTY_CHECK_MSG(s.at_end(), "serve: trailing bytes in stats");
  return stats;
}

std::uint64_t config_hash(const Request& req) {
  Request canonical = req;
  canonical.seed = 0;
  return fnv1a64(encode_request(canonical));
}

std::uint64_t prefix_hash(const Request& req) {
  Request canonical = req;
  if (canonical.beta_switch) canonical.beta_switch->beta = 0.0;
  return fnv1a64(encode_request(canonical));
}

ServeCore::ServeCore(std::size_t max_snapshots)
    : max_snapshots_(max_snapshots) {
  SIMTY_CHECK_MSG(max_snapshots_ > 0, "serve: snapshot store needs capacity");
}

const std::string* ServeCore::store_lookup(std::uint64_t key) {
  const auto it = snapshots_.find(key);
  if (it == snapshots_.end()) return nullptr;
  recency_.splice(recency_.begin(), recency_, it->second.recency);
  return &it->second.bytes;
}

void ServeCore::store_insert(std::uint64_t key, std::string bytes) {
  if (snapshots_.count(key) != 0) return;  // racing sweep points: keep first
  recency_.push_front(key);
  snapshots_.emplace(key, StoredSnapshot{std::move(bytes), recency_.begin()});
  ++stats_.snapshots_stored;
  while (snapshots_.size() > max_snapshots_) {
    snapshots_.erase(recency_.back());
    recency_.pop_back();
    ++stats_.snapshots_evicted;
  }
}

Response ServeCore::run_request(const Request& req) {
  const exp::ExperimentConfig config = to_config(req);
  // Warm starts only make sense with a β switch late enough that the
  // shared prefix is worth snapshotting.
  const bool warm_eligible =
      req.beta_switch && req.beta_switch->at > kPrefixMargin;
  if (warm_eligible) {
    const std::uint64_t key = prefix_hash(req);
    if (const std::string* prefix = store_lookup(key)) {
      ++stats_.prefix_hits;
      exp::Run run(config);
      run.restore_snapshot(*prefix);
      Response resp = to_response(run.finish());
      resp.warm_started = true;
      return resp;
    }
    ++stats_.prefix_misses;
    exp::Run run(config);
    const TimePoint target =
        TimePoint::origin() + (req.beta_switch->at - kPrefixMargin);
    run.advance_to_quiescent(target);
    // Only park the snapshot if quiescence stepping stayed strictly before
    // the switch — past it the prefix would have baked in this point's β.
    if (run.now() < TimePoint::origin() + req.beta_switch->at) {
      store_insert(key, run.save_snapshot());
    }
    return to_response(run.finish());
  }
  return to_response(exp::run_experiment(config));
}

Response ServeCore::handle(const Request& req) {
  ++stats_.requests;
  const auto key = std::make_pair(config_hash(req), req.seed);
  const auto it = results_.find(key);
  if (it != results_.end()) {
    ++stats_.result_hits;
    Response resp = it->second;
    resp.cached = true;
    return resp;
  }
  ++stats_.result_misses;
  const Response resp = run_request(req);
  results_.emplace(key, resp);
  return resp;
}

std::string ServeCore::handle_frame(const std::string& bytes) {
  const snapshot::Reader reader(bytes);
  if (reader.has_section("simty-stats")) return encode_stats(stats_);
  return encode_response(handle(decode_request(bytes)));
}

}  // namespace simty::serve
