// Sweep-server core: the result cache must answer repeated identical
// requests without re-simulating (hit counter increments), warm-started
// sweep points must match their cold straight runs bit-for-bit, the
// protocol codec must round-trip, and hostile frames must be rejected with
// std::logic_error — never crash the core, never decode to a config that
// does not re-encode.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "exp/run.hpp"
#include "serve/serve_core.hpp"
#include "serve/server.hpp"
#include "snapshot/snapshot.hpp"
#include "support/corrupt.hpp"
#include "support/result_equality.hpp"
#include "support/section_edit.hpp"

namespace simty::serve {
namespace {

Request quick_request(double beta = 0.0) {
  Request req;
  req.policy = exp::PolicyKind::kSimty;
  req.workload = exp::WorkloadKind::kLight;
  req.duration = Duration::minutes(90);
  req.seed = 11;
  if (beta > 0.0) {
    // Switch at 80 minutes: the shared prefix covers ~90% of the run.
    req.beta_switch =
        exp::ExperimentConfig::BetaSwitch{Duration::minutes(80), beta};
  }
  return req;
}

using support::expect_identical;

// Frame sizes and FNV-1a digests of the WireBytesArePinned frames.
constexpr std::size_t kRequestBytes = 689;
constexpr std::uint64_t kRequestDigest = 14133869477993746988ull;
constexpr std::size_t kResponseBytes = 257;
constexpr std::uint64_t kResponseDigest = 9931696667696111434ull;
constexpr std::size_t kStatsBytes = 106;
constexpr std::uint64_t kStatsDigest = 16112542700533300853ull;
constexpr std::size_t kErrorBytes = 99;
constexpr std::uint64_t kErrorDigest = 5775696861638218156ull;
constexpr std::size_t kShutdownBytes = 46;
constexpr std::uint64_t kShutdownDigest = 4204350049397745173ull;

// A config with every optional part present and off-default values, the
// paging scenario included.
Request rich_request() {
  Request req = quick_request(0.7);
  req.policy = exp::PolicyKind::kFixedInterval;
  req.fixed_interval = Duration::seconds(240);
  req.similarity.hw_mode = alarm::HardwareSimilarityMode::kFourLevel;
  req.beta = 0.8;
  req.doze = true;
  req.drx.emplace();
  req.drx->wur = true;
  req.drx->wur_delay_budget = Duration::seconds(10);
  req.wur.listen = Power::milliwatts(0.2);
  req.power_model = hw::PowerModel::wearable();
  apps::AppProfile app;
  app.name = "Line";
  app.repeat = Duration::seconds(200);
  app.alpha = 0.75;
  app.hardware = hw::ComponentSet{hw::Component::kWifi};
  app.base_hold = Duration::seconds(2);
  req.custom_profiles = {app, app};
  req.custom_profiles[1].name = "Kakao";
  return req;
}

TEST(ServeCodec, RequestRoundTripsExactly) {
  // Every field of the config travels: the decoded config re-encodes to
  // the same frame.
  const Request req = rich_request();
  const std::string frame = encode_request(req);
  const Request back = decode_request(frame);
  EXPECT_EQ(encode_request(back), frame);
  EXPECT_EQ(back.power_model.sleep, hw::PowerModel::wearable().sleep);
  ASSERT_EQ(back.custom_profiles.size(), 2u);
  EXPECT_EQ(back.custom_profiles[1].name, "Kakao");
  ASSERT_TRUE(back.drx.has_value());
  EXPECT_TRUE(back.drx->wur);
  ASSERT_TRUE(back.beta_switch.has_value());
  EXPECT_EQ(back.beta_switch->beta, 0.7);
}

TEST(ServeCodec, ResponseAndStatsRoundTrip) {
  Response resp;
  resp.cached = true;
  resp.warm_started = true;
  resp.policy_name = "SIMTY";
  resp.total_j = 12.5;
  resp.gap_violations = 3;
  expect_identical(resp, decode_response(encode_response(resp)));
  EXPECT_TRUE(decode_response(encode_response(resp)).cached);

  ServeStats stats;
  stats.requests = 7;
  stats.prefix_hits = 5;
  const ServeStats back = decode_stats(encode_stats(stats));
  EXPECT_EQ(back.requests, 7u);
  EXPECT_EQ(back.prefix_hits, 5u);
}

TEST(ServeCodec, WireBytesArePinned) {
  // Deployed clients and daemons must keep talking: the field order and
  // encoding of every frame is part of the protocol, so each one is pinned
  // here. Every response field carries a distinct value, so swapping two
  // fields changes the bytes. The request carries the default power model,
  // so recalibrating PowerModel::nexus5() re-pins its digest too.
  Request req;
  req.policy = exp::PolicyKind::kSimtyDuration;
  req.workload = exp::WorkloadKind::kHeavy;
  req.duration = Duration::minutes(150);
  req.seed = 0x0123456789abcdefull;
  req.doze = true;
  req.system_alarms = false;
  req.beta_switch = exp::ExperimentConfig::BetaSwitch{Duration::minutes(70), 0.625};
  req.drx.emplace();
  req.drx->wur_delay_budget = Duration::millis(2500);
  const std::string req_bytes = encode_request(req);
  EXPECT_EQ(req_bytes.size(), kRequestBytes);
  EXPECT_EQ(common::fnv1a64(req_bytes), kRequestDigest);

  Response resp;
  resp.cached = true;
  resp.warm_started = false;
  resp.policy_name = "SIMTY-DUR";
  resp.total_j = 101.25;
  resp.awake_total_j = 102.5;
  resp.average_power_mw = 103.75;
  resp.projected_standby_hours = 104.0;
  resp.delay_perceptible = 0.105;
  resp.delay_imperceptible = 0.106;
  resp.delay_imperceptible_p95 = 0.107;
  resp.deliveries = 108.0;
  resp.batches_delivered = 109.0;
  resp.one_shots = 110.0;
  resp.awake_seconds = 111.5;
  resp.asleep_seconds = 112.5;
  resp.worst_gap_ratio = 1.13;
  resp.gap_violations = 114;
  resp.perceptible_window_misses = 115;
  resp.pages_answered = 116.0;
  resp.page_delay_avg_s = 1.17;
  resp.page_delay_p95_s = 1.18;
  resp.drx_listen_seconds = 119.5;
  resp.wur_listen_seconds = 120.5;
  resp.wur_triggers = 121.0;
  const std::string resp_bytes = encode_response(resp);
  EXPECT_EQ(resp_bytes.size(), kResponseBytes);
  EXPECT_EQ(common::fnv1a64(resp_bytes), kResponseDigest);

  ServeStats stats;
  stats.requests = 201;
  stats.result_hits = 202;
  stats.result_misses = 203;
  stats.prefix_hits = 204;
  stats.prefix_misses = 205;
  stats.snapshots_stored = 206;
  stats.snapshots_evicted = 207;
  const std::string stats_bytes = encode_stats(stats);
  EXPECT_EQ(stats_bytes.size(), kStatsBytes);
  EXPECT_EQ(common::fnv1a64(stats_bytes), kStatsDigest);
}

TEST(ServeCodec, ErrorAndShutdownFramesArePinned) {
  // The transport's own frames are protocol too: a client parses the error
  // reply's message and recognizes the shutdown acknowledgement.
  const std::string err = encode_error("serve: config field 'duration': must be <= 24 h");
  EXPECT_EQ(err.size(), kErrorBytes);
  EXPECT_EQ(common::fnv1a64(err), kErrorDigest);
  const std::string bye = encode_shutdown();
  EXPECT_EQ(bye.size(), kShutdownBytes);
  EXPECT_EQ(common::fnv1a64(bye), kShutdownDigest);
}

TEST(ServeCodec, RejectsMalformedFrames) {
  ServeCore core;
  EXPECT_THROW(core.handle_frame("not a snapshot"), std::logic_error);
  // A valid container with the wrong section is equally rejected.
  EXPECT_THROW(core.handle_frame(encode_shutdown()), std::logic_error);
  // Truncations of a valid request must never desynchronize the decoder.
  const std::string good = encode_request(quick_request(0.5));
  for (const std::size_t keep : {std::size_t{0}, std::size_t{4}, good.size() / 2,
                                 good.size() - 1}) {
    EXPECT_THROW(core.handle_frame(good.substr(0, keep)), std::logic_error)
        << "kept " << keep << " bytes";
  }
  // Domain validation names the field: values the run cannot honour.
  const auto expect_rejected = [](const Request& bad, const std::string& field) {
    try {
      decode_request(encode_request(bad));
      ADD_FAILURE() << field << " decoded";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("'" + field + "'"), std::string::npos)
          << e.what();
    }
  };
  Request bad = quick_request(0.5);
  bad.beta_switch->at = bad.duration + Duration::seconds(1);
  expect_rejected(bad, "beta_switch.at");
  bad = quick_request(0.5);
  bad.beta_switch->beta = -0.5;
  expect_rejected(bad, "beta_switch.beta");
  bad = quick_request();
  bad.duration = Duration::zero();
  expect_rejected(bad, "duration");
  bad = quick_request();
  bad.duration = kMaxServedDuration + Duration::micros(1);
  expect_rejected(bad, "duration");
  bad = quick_request();
  bad.beta = -0.1;
  expect_rejected(bad, "beta");
  bad = quick_request();
  bad.power_model.sleep = Power::milliwatts(std::nan(""));
  expect_rejected(bad, "power_model.sleep");
  bad = quick_request();
  bad.drx.emplace();
  bad.drx->page_hold = Duration::micros(-1);
  expect_rejected(bad, "drx.page_hold");
}

TEST(ServeCodec, FrameWithAnUnreadFieldIsRejectedNamingTheSection) {
  const auto expect_unread = [](const std::string& frame, const char* section,
                                const auto& decode) {
    SCOPED_TRACE(section);
    const std::string padded = support::edit_section(
        frame, section, [](std::string& payload) { payload += support::u64_field(7); });
    try {
      decode(padded);
      ADD_FAILURE() << "decoded a frame with an unread field";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("section '") + section + "'"),
                std::string::npos)
          << e.what();
    }
  };
  expect_unread(encode_request(quick_request()), "simty-request",
                [](const std::string& f) { decode_request(f); });
  expect_unread(encode_response(Response{}), "simty-response",
                [](const std::string& f) { decode_response(f); });
  expect_unread(encode_stats(ServeStats{}), "simty-stats",
                [](const std::string& f) { decode_stats(f); });
}

TEST(ServeCodec, RandomizedRequestCorruptionNeverEscapesTheChecks) {
  // The snapshot container's corruption sweep, aimed at request frames:
  // each mangled frame either decodes to a config whose re-encoding
  // decodes to the same config again, or is rejected with
  // std::logic_error. Anything else (crash, other exception type) fails
  // the test; UB is caught by the sanitizer job running this sweep.
  const std::string good = encode_request(rich_request());
  Rng rng(0xf02e, 18);
  int rejected = 0, survived = 0;
  for (int round = 0; round < 4000; ++round) {
    const std::string bytes = support::corrupt(good, rng);
    Request decoded;
    try {
      decoded = decode_request(bytes);
    } catch (const std::logic_error&) {
      ++rejected;
      continue;
    }
    ++survived;
    const std::string again = encode_request(decoded);
    EXPECT_EQ(encode_request(decode_request(again)), again) << "round " << round;
  }
  EXPECT_GT(rejected, 100);
  EXPECT_GT(survived, 10);
}

TEST(ServeHash, SeedAndBetaFactorOutAsDesigned) {
  const auto keys = [](const Request& r) { return cache_keys(exp::encode_config(r)); };
  const Request a = quick_request(0.3);
  Request b = a;
  b.beta_switch->beta = 0.9;
  Request c = a;
  c.seed = 99;

  // Result-cache key: β matters, seed is factored out into the pair.
  EXPECT_NE(keys(a).config_hash, keys(b).config_hash);
  EXPECT_EQ(keys(a).config_hash, keys(c).config_hash);
  // Prefix key: β is blind (the whole point), seed matters.
  EXPECT_EQ(keys(a).prefix_hash, keys(b).prefix_hash);
  EXPECT_NE(keys(a).prefix_hash, keys(c).prefix_hash);
  // Every other field is in both keys, the paging scenario included.
  Request d = a;
  d.drx.emplace();
  EXPECT_NE(keys(a).config_hash, keys(d).config_hash);
  EXPECT_NE(keys(a).prefix_hash, keys(d).prefix_hash);
}

TEST(ServeCore, RepeatedIdenticalRequestsHitTheResultCache) {
  ServeCore core;
  const Request req = quick_request();
  const Response first = core.handle(req);
  EXPECT_FALSE(first.cached);
  const Response second = core.handle(req);
  EXPECT_TRUE(second.cached);
  expect_identical(first, second);
  const Response third = core.handle(req);
  EXPECT_TRUE(third.cached);
  EXPECT_EQ(core.stats().requests, 3u);
  EXPECT_EQ(core.stats().result_hits, 2u);
  EXPECT_EQ(core.stats().result_misses, 1u);
}

TEST(ServeCore, WarmStartedSweepPointMatchesColdRun) {
  ServeCore core;
  // First sweep point: cold, simulates the prefix and parks the snapshot.
  const Response lo = core.handle(quick_request(0.3));
  EXPECT_FALSE(lo.warm_started);
  EXPECT_EQ(core.stats().prefix_misses, 1u);
  EXPECT_EQ(core.stats().snapshots_stored, 1u);

  // Second point differs only in β: served from the shared prefix…
  const Request hi = quick_request(0.9);
  const Response warm = core.handle(hi);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(core.stats().prefix_hits, 1u);

  // …and must equal a from-scratch run of that config exactly.
  const exp::RunResult straight = exp::run_experiment(hi);
  EXPECT_EQ(warm.total_j, straight.energy.total().joules_f());
  EXPECT_EQ(warm.average_power_mw, straight.average_power_mw);
  EXPECT_EQ(warm.delay_imperceptible, straight.delay_imperceptible);
  EXPECT_EQ(warm.deliveries, straight.deliveries);
  EXPECT_EQ(warm.gap_violations, straight.gap_violations);

  // The differing-β results are genuinely different runs (the switch did
  // something), or the warm-start test would be vacuous.
  EXPECT_NE(lo.total_j, warm.total_j);
}

TEST(ServeCore, PagingRequestRepliesCarryThePagingRows) {
  // A DRX+WuR config is served like any other: the cold reply and its
  // cached repeat both carry run_experiment's paging numbers.
  ServeCore core;
  Request req = quick_request();
  req.duration = Duration::minutes(30);
  req.drx.emplace();
  req.drx->wur = true;
  req.drx->wur_delay_budget = Duration::seconds(10);
  const exp::RunResult straight = exp::run_experiment(req);
  ASSERT_GT(straight.pages_answered, 0.0);
  ASSERT_GT(straight.wur_triggers, 0.0);

  const Response cold = core.handle(req);
  const Response cached = decode_response(core.handle_frame(encode_request(req)));
  EXPECT_FALSE(cold.cached);
  EXPECT_TRUE(cached.cached);
  for (const Response* r : {&cold, &cached}) {
    EXPECT_EQ(r->pages_answered, straight.pages_answered);
    EXPECT_EQ(r->page_delay_avg_s, straight.page_delay_avg_s);
    EXPECT_EQ(r->page_delay_p95_s, straight.page_delay_p95_s);
    EXPECT_EQ(r->drx_listen_seconds, straight.drx_listen_seconds);
    EXPECT_EQ(r->wur_listen_seconds, straight.wur_listen_seconds);
    EXPECT_EQ(r->wur_triggers, straight.wur_triggers);
  }
}

TEST(ServeCore, PrefixStoreEvictsLeastRecentlyUsed) {
  ServeCore core(1);  // room for exactly one prefix
  Request a = quick_request(0.3);
  Request b = quick_request(0.3);
  b.seed = 12;  // different prefix key (prefix is seed-specific)

  core.handle(a);
  EXPECT_EQ(core.stats().snapshots_stored, 1u);
  core.handle(b);  // evicts a's prefix
  EXPECT_EQ(core.stats().snapshots_evicted, 1u);
  Request a2 = a;
  a2.beta_switch->beta = 0.9;  // would have warm-started from a's prefix
  core.handle(a2);
  EXPECT_EQ(core.stats().prefix_hits, 0u);
  EXPECT_EQ(core.stats().prefix_misses, 3u);
}

TEST(ServeCore, EvictedResultIsRecomputedNotCached) {
  ServeCore core(8, 2);  // room for two results
  Request a = quick_request();
  a.duration = Duration::minutes(30);
  Request b = a;
  b.seed = 12;
  Request c = a;
  c.seed = 13;

  core.handle(a);
  const Response first_b = core.handle(b);
  EXPECT_TRUE(core.handle(a).cached);  // a is now the most recent
  core.handle(c);                      // evicts b, the least recent
  const Response again_b = core.handle(b);
  EXPECT_FALSE(again_b.cached);
  expect_identical(first_b, again_b);
  EXPECT_TRUE(core.handle(c).cached);
  EXPECT_EQ(core.stats().result_hits, 2u);
  EXPECT_EQ(core.stats().result_misses, 4u);
}

TEST(ServeCore, SweepRepliesMatchHeapRunsAndASweepLongBoundKeepsThemCached) {
  // Every run the core computes is backed by its arena, reset per run; the
  // replies must equal run_experiment's on the heap bit for bit, the cold
  // point's included, across a second sweep on the warmed arena. A result
  // bound of one sweep's length keeps each sweep's second pass cached.
  constexpr std::size_t kPoints = 4;
  ServeCore core(8, kPoints);
  for (const std::uint64_t seed : {21u, 22u}) {
    std::vector<Request> sweep;
    for (std::size_t k = 0; k < kPoints; ++k) {
      Request req = quick_request(0.2 + 0.2 * static_cast<double>(k));
      req.duration = Duration::minutes(40);
      req.beta_switch->at = Duration::minutes(30);
      req.seed = seed;
      sweep.push_back(req);
    }
    for (std::size_t k = 0; k < kPoints; ++k) {
      SCOPED_TRACE(k);
      const Response resp = decode_response(core.handle_frame(encode_request(sweep[k])));
      EXPECT_FALSE(resp.cached);
      EXPECT_EQ(resp.warm_started, k > 0);
      const exp::RunResult r = exp::run_experiment(sweep[k]);
      Response straight;
      straight.policy_name = r.policy_name;
      Response::for_each_metric(
          [&](const char*, auto member, auto source) { straight.*member = source(r); });
      expect_identical(resp, straight);
    }
    for (const Request& req : sweep) {
      EXPECT_TRUE(decode_response(core.handle_frame(encode_request(req))).cached);
    }
  }
  EXPECT_EQ(core.stats().result_hits, 2 * kPoints);
  EXPECT_EQ(core.stats().prefix_hits, 2 * (kPoints - 1));
}

/// Connects a raw client socket to `path`; -1 on failure.
int connect_raw(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ServeServer, SocketRoundTripServesAndShutsDown) {
  const std::string path = ::testing::TempDir() + "simty_serve_test.sock";
  ServeCore core;
  Server server(path, core);
  std::thread daemon([&] { server.serve(); });

  Request req = quick_request();
  req.duration = Duration::minutes(30);
  const std::string reply = query(path, encode_request(req));
  const Response first = decode_response(reply);
  EXPECT_FALSE(first.cached);
  const Response second = decode_response(query(path, encode_request(req)));
  EXPECT_TRUE(second.cached);
  expect_identical(first, second);

  const ServeStats stats = decode_stats(query(path, encode_stats_request()));
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.result_hits, 1u);

  // A garbage frame gets an error reply, not a dead daemon.
  const std::string err = query(path, std::string("garbage"));
  EXPECT_THROW(decode_response(err), std::logic_error);

  EXPECT_TRUE(is_shutdown_frame(query(path, encode_shutdown())));
  daemon.join();
}

TEST(ServeServer, OverCapHorizonGetsAnErrorReplyAndTheNextRequestIsServed) {
  // A horizon past kMaxServedDuration would occupy the serial daemon; it is
  // refused at decode time, naming the field, and the core keeps serving.
  const std::string path = ::testing::TempDir() + "simty_serve_horizon.sock";
  ServeCore core;
  Server server(path, core);
  std::thread daemon([&] { server.serve(); });

  Request huge = quick_request();
  huge.duration = kMaxServedDuration + Duration::seconds(1);
  const std::string err = query(path, encode_request(huge));
  EXPECT_THROW(decode_response(err), std::logic_error);
  const snapshot::Reader reader(err);
  EXPECT_NE(reader.section("simty-error", kProtocolVersion).str().find("'duration'"),
            std::string::npos);

  Request req = quick_request();
  req.duration = Duration::minutes(30);
  const Response resp = decode_response(query(path, encode_request(req)));
  EXPECT_FALSE(resp.cached);
  EXPECT_FALSE(resp.policy_name.empty());
  EXPECT_EQ(decode_stats(query(path, encode_stats_request())).requests, 1u);

  EXPECT_TRUE(is_shutdown_frame(query(path, encode_shutdown())));
  daemon.join();
}

TEST(ServeServer, ClientClosingBeforeReplySurvivesAsEpipe) {
  // Regression: the reply used to go through bare ::write, so a client that
  // disconnected before reading its reply raised SIGPIPE and killed the
  // daemon process. With MSG_NOSIGNAL the write fails with EPIPE, the serve
  // loop drops that connection, and the next client is served normally.
  const std::string path = ::testing::TempDir() + "simty_serve_epipe.sock";
  ServeCore core;
  Server server(path, core);
  std::thread daemon([&] { server.serve(); });

  {
    const int fd = connect_raw(path);
    ASSERT_GE(fd, 0);
    Request req = quick_request();
    req.duration = Duration::minutes(30);
    send_frame(fd, encode_request(req));
    // Vanish while the server is still simulating: its reply write lands on
    // a closed peer.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }

  // The daemon must still be alive and serving.
  Request req = quick_request();
  req.duration = Duration::minutes(30);
  req.seed = 21;
  const Response resp = decode_response(query(path, encode_request(req)));
  EXPECT_FALSE(resp.policy_name.empty());

  EXPECT_TRUE(is_shutdown_frame(query(path, encode_shutdown())));
  daemon.join();
}

TEST(ServeServer, SilentClientIsDroppedAndTheNextClientIsServed) {
  // Regression: a client that connected and never sent a frame blocked the
  // serial serve loop in its read forever, so every client behind it hung.
  // The per-connection receive timeout drops the silent one after
  // kConnectionTimeout and the next client is answered.
  const std::string path = ::testing::TempDir() + "simty_serve_silent.sock";
  ServeCore core;
  Server server(path, core);
  std::thread daemon([&] { server.serve(); });

  const int silent = connect_raw(path);
  const int other = connect_raw(path);
  ASSERT_GE(silent, 0);
  ASSERT_GE(other, 0);
  // Bound this client's own wait, so a daemon that never drops the silent
  // peer fails the test instead of hanging it.
  const auto limit = kConnectionTimeout + std::chrono::seconds(5);
  timeval tv{};
  tv.tv_sec = limit.count();
  ASSERT_EQ(::setsockopt(other, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);

  const auto start = std::chrono::steady_clock::now();
  send_frame(other, encode_stats_request());
  std::string reply;
  bool answered = false;
  try {
    answered = recv_frame(other, reply);
  } catch (const std::runtime_error&) {
  }
  const auto waited = std::chrono::steady_clock::now() - start;
  ::close(silent);  // frees a daemon still stuck on the silent peer
  ::close(other);

  EXPECT_TRUE(answered);
  EXPECT_LT(waited, limit);
  if (answered) {
    EXPECT_EQ(decode_stats(reply).requests, 0u);
  }

  EXPECT_TRUE(is_shutdown_frame(query(path, encode_shutdown())));
  daemon.join();
}

}  // namespace
}  // namespace simty::serve
