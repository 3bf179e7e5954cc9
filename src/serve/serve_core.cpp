#include "serve/serve_core.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "exp/run.hpp"
#include "snapshot/codec.hpp"

namespace simty::serve {

namespace {

Response to_response(const exp::RunResult& r) {
  Response resp;
  resp.policy_name = r.policy_name;
  Response::for_each_metric([&](const char*, auto member, auto source) {
    resp.*member = source(r);
  });
  return resp;
}

}  // namespace

std::string encode_request(const Request& req) {
  snapshot::Writer w;
  w.begin_section("simty-request", kProtocolVersion);
  exp::write_config(w, req);
  w.end_section();
  return w.finish();
}

Request decode_request(const std::string& bytes) {
  Request req;
  snapshot::Reader(bytes).read_section(
      "simty-request", kProtocolVersion,
      [&req](snapshot::SectionReader& s) { req = exp::read_config(s); });
  SIMTY_CHECK_MSG(req.duration <= kMaxServedDuration,
                  "serve: config field 'duration': must be <= 24 h");
  return req;
}

std::string encode_response(const Response& resp) {
  snapshot::Writer w;
  w.begin_section("simty-response", kProtocolVersion);
  snapshot::write_fields(w, resp);
  w.end_section();
  return w.finish();
}

Response decode_response(const std::string& bytes) {
  Response resp;
  snapshot::Reader(bytes).read_section(
      "simty-response", kProtocolVersion,
      [&resp](snapshot::SectionReader& s) { snapshot::read_fields(s, resp); });
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
  snapshot::write_fields(w, stats);
  w.end_section();
  return w.finish();
}

ServeStats decode_stats(const std::string& bytes) {
  ServeStats stats;
  snapshot::Reader(bytes).read_section(
      "simty-stats", kProtocolVersion,
      [&stats](snapshot::SectionReader& s) { snapshot::read_fields(s, stats); });
  return stats;
}

CacheKeys cache_keys(const Request& req) {
  // The encoding ends with the seed, then the switch β (both fixed-size).
  const std::string bytes = exp::encode_config(req);
  const std::string_view v = bytes;
  const std::size_t n = exp::kConfigTailFieldBytes;
  const std::size_t seed_at = v.size() - 2 * n;
  const std::uint64_t head = common::fnv1a64(v.substr(0, seed_at));
  return {common::fnv1a64(v.substr(seed_at + n), head),
          common::fnv1a64(v.substr(seed_at, n), head)};
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

Response ServeCore::run_request(const Request& req, std::uint64_t prefix_key) {
  // Warm starts only make sense with a β switch late enough that the
  // shared prefix is worth snapshotting.
  const bool warm_eligible =
      req.beta_switch && req.beta_switch->at > kPrefixMargin;
  if (warm_eligible) {
    if (const std::string* prefix = store_lookup(prefix_key)) {
      ++stats_.prefix_hits;
      exp::Run run(req);
      run.restore_snapshot(*prefix);
      Response resp = to_response(run.finish());
      resp.warm_started = true;
      return resp;
    }
    ++stats_.prefix_misses;
    exp::Run run(req);
    const TimePoint target =
        TimePoint::origin() + (req.beta_switch->at - kPrefixMargin);
    run.advance_to_quiescent(target);
    // Only park the snapshot if quiescence stepping stayed strictly before
    // the switch — past it the prefix would have baked in this point's β.
    if (run.now() < TimePoint::origin() + req.beta_switch->at) {
      store_insert(prefix_key, run.save_snapshot());
    }
    return to_response(run.finish());
  }
  return to_response(exp::run_experiment(req));
}

Response ServeCore::handle(const Request& req) {
  ++stats_.requests;
  const CacheKeys keys = cache_keys(req);
  const auto key = std::make_pair(keys.config_hash, req.seed);
  const auto it = results_.find(key);
  if (it != results_.end()) {
    ++stats_.result_hits;
    Response resp = it->second;
    resp.cached = true;
    return resp;
  }
  ++stats_.result_misses;
  const Response resp = run_request(req, keys.prefix_hash);
  results_.emplace(key, resp);
  return resp;
}

std::string ServeCore::handle_frame(const std::string& bytes) {
  const snapshot::Reader reader(bytes);
  if (reader.has_section("simty-stats")) return encode_stats(stats_);
  return encode_response(handle(decode_request(bytes)));
}

}  // namespace simty::serve
