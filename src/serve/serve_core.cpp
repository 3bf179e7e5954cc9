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

namespace {

/// The request in a parsed frame's "simty-request" section; `encoding`
/// views that section's payload, write_config's bytes for the request.
Request read_request(const snapshot::Reader& reader, std::string_view& encoding) {
  Request req;
  reader.read_section("simty-request", kProtocolVersion,
                      [&](snapshot::SectionReader& s) {
                        encoding = s.payload();
                        req = exp::read_config(s);
                      });
  SIMTY_CHECK_MSG(req.duration <= kMaxServedDuration,
                  "serve: config field 'duration': must be <= 24 h");
  return req;
}

}  // namespace

Request decode_request(const std::string& bytes) {
  std::string_view encoding;
  return read_request(snapshot::Reader(bytes), encoding);
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

CacheKeys cache_keys(std::string_view encoding) {
  // The encoding ends with the seed, then the switch β (both fixed-size).
  const std::size_t n = exp::kConfigTailFieldBytes;
  SIMTY_CHECK_MSG(encoding.size() >= 2 * n, "serve: config encoding too short");
  const std::size_t seed_at = encoding.size() - 2 * n;
  const std::uint64_t head = common::fnv1a64(encoding.substr(0, seed_at));
  return {common::fnv1a64(encoding.substr(seed_at + n), head),
          common::fnv1a64(encoding.substr(seed_at, n), head)};
}

ServeCore::ServeCore(std::size_t max_snapshots, std::size_t max_results)
    : results_(max_results), snapshots_(max_snapshots) {
  SIMTY_CHECK_MSG(max_snapshots > 0, "serve: snapshot store needs capacity");
  SIMTY_CHECK_MSG(max_results > 0, "serve: result cache needs capacity");
}

Response ServeCore::run_request(Request req, std::uint64_t prefix_key) {
  // Every computed run is backed by the core's arena; an arena never
  // changes a result bit, and the response and stored prefix bytes live
  // on the heap.
  arena_.reset();
  req.arena_opts.arena = &arena_;
  // Warm starts only make sense with a β switch late enough that the
  // shared prefix is worth snapshotting.
  if (!req.beta_switch || req.beta_switch->at <= kPrefixMargin) {
    return to_response(exp::run_experiment(std::move(req)));
  }
  const Duration switch_at = req.beta_switch->at;
  if (const std::string* prefix = snapshots_.find(prefix_key)) {
    ++stats_.prefix_hits;
    exp::Run run(std::move(req));
    run.restore_snapshot(*prefix);
    Response resp = to_response(run.finish());
    resp.warm_started = true;
    return resp;
  }
  ++stats_.prefix_misses;
  exp::Run run(std::move(req));
  run.advance_to_quiescent(TimePoint::origin() + (switch_at - kPrefixMargin));
  // Only park the snapshot if quiescence stepping stayed strictly before
  // the switch — past it the prefix would have baked in this point's β.
  if (run.now() < TimePoint::origin() + switch_at) {
    stats_.snapshots_evicted += snapshots_.insert(prefix_key, run.save_snapshot());
    ++stats_.snapshots_stored;
  }
  return to_response(run.finish());
}

Response ServeCore::answer(Request req, const CacheKeys& keys) {
  ++stats_.requests;
  const auto key = std::make_pair(keys.config_hash, req.seed);
  if (const Response* hit = results_.find(key)) {
    ++stats_.result_hits;
    Response resp = *hit;
    resp.cached = true;
    return resp;
  }
  ++stats_.result_misses;
  const Response resp = run_request(std::move(req), keys.prefix_hash);
  results_.insert(key, resp);
  return resp;
}

Response ServeCore::handle(const Request& req) {
  return answer(req, cache_keys(exp::encode_config(req)));
}

std::string ServeCore::handle_frame(const std::string& bytes) {
  const snapshot::Reader reader(bytes);
  if (reader.has_section("simty-stats")) return encode_stats(stats_);
  std::string_view encoding;
  Request req = read_request(reader, encoding);
  // A frame that decodes is the request's encoding byte for byte unless
  // it spells a value non-canonically (a -0.0 β without a switch); such a
  // frame only misses the cache entries of its canonical twin.
  const CacheKeys keys = cache_keys(encoding);
  return encode_response(answer(std::move(req), keys));
}

}  // namespace simty::serve
