#pragma once
// Result-cached sweep serving with common-prefix warm starts.
//
// ServeCore is the transport-free brain of the simty_serve daemon: it
// decodes request frames, answers repeated identical requests from a
// result cache keyed by (config hash, seed), and accelerates β-sweeps by
// snapshotting the standby prefix the sweep points share. The wire codec
// is the snapshot container itself (snapshot/snapshot.hpp) — one hardened,
// bounds-checked decoder for run state, traces, and the protocol, so a
// hostile frame hits the same rejection paths the fuzz tests cover.
//
// The warm-start lever (see exp/run.hpp): requests that differ only in
// beta_switch.beta share a byte-identical run prefix up to the switch
// instant, because β lives in the switch event's closure and never in the
// serialized state. The first sweep point pays for the prefix and parks a
// snapshot in an LRU store keyed by the β-blind config hash; every other
// point restores it and simulates only the post-switch tail.

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "common/arena.hpp"
#include "common/check.hpp"
#include "exp/experiment.hpp"

namespace simty::serve {

/// Protocol version for every section the serve layer writes.
/// v2: the request is the full ExperimentConfig encoding; paging rows.
inline constexpr std::uint32_t kProtocolVersion = 2;

/// A request is a whole experiment config: its frame is the canonical
/// encoding (exp::write_config), so any config can be served. Runtime
/// attachments (tracer, hooks) stay in-process and never travel.
using Request = exp::ExperimentConfig;

/// Longest horizon a request may ask for. The daemon runs one request at a
/// time, so one huge horizon would occupy it; a day is 8x the longest
/// in-tree served scenario (3 h).
inline constexpr Duration kMaxServedDuration = Duration::hours(24);

/// The metric rows a sweep plot needs, plus cache provenance. The rows are
/// the two energy totals, then every scalar of SIMTY_RUN_RESULT_SCALARS in
/// its order and type; they drive to_response, the response codec (wire
/// order = row order) and simty_query's output.
struct Response {
  bool cached = false;        // answered from the result cache
  bool warm_started = false;  // computed by resuming a shared prefix
  std::string policy_name;
  double total_j = 0;
  double awake_total_j = 0;
#define SIMTY_DECLARE_METRIC(member, fold) decltype(exp::RunResult::member) member = 0;
  SIMTY_RUN_RESULT_SCALARS(SIMTY_DECLARE_METRIC)
#undef SIMTY_DECLARE_METRIC

  /// Calls f(name, member pointer, source) per metric, in wire order, where
  /// source(run_result) computes the metric.
  template <typename F>
  static void for_each_metric(F&& f) {
    f("total_j", &Response::total_j,
      [](const exp::RunResult& r) { return r.energy.total().joules_f(); });
    f("awake_total_j", &Response::awake_total_j,
      [](const exp::RunResult& r) { return r.energy.awake_total().joules_f(); });
#define SIMTY_VISIT_METRIC(member, fold) \
  f(#member, &Response::member, [](const exp::RunResult& r) { return r.member; });
    SIMTY_RUN_RESULT_SCALARS(SIMTY_VISIT_METRIC)
#undef SIMTY_VISIT_METRIC
  }

  /// The wire fields, in order, for the shared snapshot field codec.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    f("cached", self.cached);
    f("warm_started", self.warm_started);
    f("policy_name", self.policy_name);
    for_each_metric([&](const char* name, auto member, auto) { f(name, self.*member); });
  }
};

/// Cache effectiveness counters (the "simty-stats" command), one line
/// each: X(name). The list declares ServeStats's u64 members and drives the
/// stats codec (wire order = list order) and simty_query --stats.
#define SIMTY_SERVE_STATS(X)                                   \
  X(requests)                                                  \
  X(result_hits)                                               \
  X(result_misses)                                             \
  X(prefix_hits)    /* warm starts served from the store */    \
  X(prefix_misses)  /* cold prefixes simulated (and stored) */ \
  X(snapshots_stored)                                          \
  X(snapshots_evicted)

struct ServeStats {
#define SIMTY_DECLARE_STAT(name) std::uint64_t name = 0;
  SIMTY_SERVE_STATS(SIMTY_DECLARE_STAT)
#undef SIMTY_DECLARE_STAT

  /// Calls f(name, member pointer) per counter, in wire order.
  template <typename F>
  static void for_each_counter(F&& f) {
#define SIMTY_VISIT_STAT(name) f(#name, &ServeStats::name);
    SIMTY_SERVE_STATS(SIMTY_VISIT_STAT)
#undef SIMTY_VISIT_STAT
  }

  /// The wire fields, in order, for the shared snapshot field codec.
  template <typename Self, typename F>
  static void for_each_state_field(Self& self, F&& f) {
    for_each_counter([&](const char* name, auto member) { f(name, self.*member); });
  }
};

// --- Codec (container sections "simty-request" / "simty-response" /
// "simty-stats"; malformed input throws std::logic_error).

std::string encode_request(const Request& req);
Request decode_request(const std::string& bytes);
std::string encode_response(const Response& resp);
Response decode_response(const std::string& bytes);
std::string encode_stats_request();
std::string encode_stats(const ServeStats& stats);
ServeStats decode_stats(const std::string& bytes);

/// The two cache keys of a request, from one FNV-1a pass over its
/// encoding (exp::encode_config's bytes, which is what a request frame's
/// section holds). `config_hash` skips the seed, which the result cache
/// pairs with it; `prefix_hash` stops before beta_switch.beta, so sweep
/// points share it, and keeps the seed, because a prefix is seed-specific.
struct CacheKeys {
  std::uint64_t config_hash = 0;
  std::uint64_t prefix_hash = 0;
};
CacheKeys cache_keys(std::string_view encoding);

namespace detail {

/// A map of at most `capacity` entries: inserting past it evicts the least
/// recently found or inserted one.
template <typename K, typename V>
class LruMap {
 public:
  explicit LruMap(std::size_t capacity) : capacity_(capacity) {}

  /// The value under `key`, now the most recently used; nullptr if absent.
  const V* find(const K& key) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return nullptr;
    recency_.splice(recency_.begin(), recency_, it->second.recency);
    return &it->second.value;
  }

  /// Stores `value` under `key`, which must be absent; returns how many
  /// entries that evicted.
  std::size_t insert(const K& key, V value) {
    recency_.push_front(key);
    const bool inserted =
        entries_.emplace(key, Entry{std::move(value), recency_.begin()}).second;
    SIMTY_CHECK_MSG(inserted, "serve: cache insert over a present key");
    std::size_t evicted = 0;
    for (; entries_.size() > capacity_; ++evicted) {
      entries_.erase(recency_.back());
      recency_.pop_back();
    }
    return evicted;
  }

 private:
  struct Entry {
    V value;
    typename std::list<K>::iterator recency;
  };
  std::size_t capacity_;
  std::list<K> recency_;  // front = most recent
  std::map<K, Entry> entries_;
};

}  // namespace detail

/// Transport-free server core. Single-threaded, like the stack it runs.
class ServeCore {
 public:
  /// `max_snapshots` bounds the prefix store and `max_results` the result
  /// cache, each evicting the least recently used entry. Run snapshots are
  /// a few KB to a few hundred KB each and a result a few hundred bytes,
  /// so the defaults keep the daemon small; any `max_results` of at least
  /// a sweep's length keeps a repeated sweep cached.
  explicit ServeCore(std::size_t max_snapshots = 8, std::size_t max_results = 4096);

  /// Answers one run request (cache → warm start → cold run, in that
  /// order of preference).
  Response handle(const Request& req);

  /// Decodes one protocol frame ("simty-request" or "simty-stats") and
  /// returns the encoded reply. The frame is parsed once: the request and
  /// both cache keys come from its one section. Malformed frames throw
  /// std::logic_error — the transport turns that into an error reply,
  /// never a crash.
  std::string handle_frame(const std::string& bytes);

  const ServeStats& stats() const { return stats_; }

 private:
  /// Warm starts need the prefix strictly before the switch instant; the
  /// margin absorbs advance_to_quiescent stepping past the target.
  static constexpr Duration kPrefixMargin = Duration::minutes(1);

  Response answer(Request req, const CacheKeys& keys);
  Response run_request(Request req, std::uint64_t prefix_key);

  ServeStats stats_;
  // Backs every run the core computes, reset before each: a warmed arena
  // keeps its high-water blocks, so later runs allocate little.
  common::Arena arena_;
  detail::LruMap<std::pair<std::uint64_t, std::uint64_t>, Response> results_;
  detail::LruMap<std::uint64_t, std::string> snapshots_;  // β-blind prefixes
};

}  // namespace simty::serve
