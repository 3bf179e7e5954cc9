// simty_query: client for the simty_serve sweep daemon.
//
//   simty_query --socket /tmp/simty.sock [run options]
//   simty_query --socket /tmp/simty.sock --stats
//   simty_query --socket /tmp/simty.sock --shutdown
//
// A request is a whole exp::ExperimentConfig (serve::Request), so the
// daemon serves any config; these flags set the fields a β-sweep varies
// and leave the rest at their ExperimentConfig defaults:
//   --policy native|simty|exact|simty-dur|fixed   (default simty)
//   --workload light|heavy|synthetic              (default light)
//   --hours H | --minutes M                       (default 3 hours)
//   --seed N                                      (default 1)
//   --doze
//   --no-system-alarms
//   --beta-switch-at-minutes M --beta B           (the sweep lever)
// --beta is the switch's β, not the base β of simty_run --beta.
//
// Counts are whole numbers, --beta is finite and > 0; a malformed value
// ("3h", "-1", "nan") is a usage error (exit 2), never another request.
//
// Output is one key=value line per response field, machine-greppable, the
// paging rows (pages_answered ... wur_triggers) included:
//   cached=1 warm_started=0 total_j=... average_power_mw=...

#include <cstdio>
#include <exception>
#include <limits>
#include <optional>
#include <string>

#include "common/strings.hpp"
#include "serve/serve_core.hpp"
#include "serve/server.hpp"
#include "snapshot/snapshot.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: simty_query --socket <path> "
               "[--stats | --shutdown | run options]\n"
               "run options: --policy P --workload W --hours H --minutes M\n"
               "             --seed N --doze --no-system-alarms\n"
               "             --beta-switch-at-minutes M --beta B\n");
  return 2;
}

void print_metric(const char* name, double v) { std::printf("%s=%.17g\n", name, v); }
void print_metric(const char* name, std::uint64_t v) {
  std::printf("%s=%llu\n", name, static_cast<unsigned long long>(v));
}

void print_response(const simty::serve::Response& r) {
  std::printf("cached=%d\n", r.cached ? 1 : 0);
  std::printf("warm_started=%d\n", r.warm_started ? 1 : 0);
  std::printf("policy=%s\n", r.policy_name.c_str());
  simty::serve::Response::for_each_metric([&](const char* name, auto member, auto) {
    print_metric(name, r.*member);
  });
}

void print_stats(const simty::serve::ServeStats& s) {
  simty::serve::ServeStats::for_each_counter(
      [&](const char* name, auto member) { print_metric(name, s.*member); });
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  bool stats = false, shutdown = false;
  simty::serve::Request req;
  req.policy = simty::exp::PolicyKind::kSimty;
  std::optional<long long> switch_minutes;
  std::optional<double> beta;
  // Durations are bounded so their microsecond count cannot overflow.
  constexpr long long kMaxMicros = std::numeric_limits<std::int64_t>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) socket_path = argv[++i];
    else if (arg == "--stats") stats = true;
    else if (arg == "--shutdown") shutdown = true;
    else if (arg == "--policy" && i + 1 < argc) {
      const auto p = simty::exp::parse_policy(argv[++i]);
      if (!p) return usage();
      req.policy = *p;
    } else if (arg == "--workload" && i + 1 < argc) {
      const auto w = simty::exp::parse_workload(argv[++i]);
      if (!w) return usage();
      req.workload = *w;
    } else if ((arg == "--hours" || arg == "--minutes") && i + 1 < argc) {
      const simty::Duration unit = arg == "--hours" ? simty::Duration::hours(1)
                                                    : simty::Duration::minutes(1);
      const auto n = simty::parse_int(argv[++i], 1, kMaxMicros / unit.us());
      if (!n) return usage();
      req.duration = unit * *n;
    } else if (arg == "--seed" && i + 1 < argc) {
      const auto n = simty::parse_int(argv[++i], 0);
      if (!n) return usage();
      req.seed = static_cast<std::uint64_t>(*n);
    } else if (arg == "--doze") {
      req.doze = true;
    } else if (arg == "--no-system-alarms") {
      req.system_alarms = false;
    } else if (arg == "--beta-switch-at-minutes" && i + 1 < argc) {
      switch_minutes =
          simty::parse_int(argv[++i], 0, kMaxMicros / simty::Duration::minutes(1).us());
      if (!switch_minutes) return usage();
    } else if (arg == "--beta" && i + 1 < argc) {
      beta = simty::parse_double(argv[++i]);
      if (!beta || *beta <= 0.0) return usage();
    } else {
      return usage();
    }
  }
  if (socket_path.empty()) return usage();
  if (switch_minutes.has_value() != beta.has_value()) {
    std::fprintf(stderr,
                 "simty_query: --beta-switch-at-minutes and --beta go "
                 "together\n");
    return 2;
  }
  if (switch_minutes) {
    req.beta_switch = simty::exp::ExperimentConfig::BetaSwitch{
        simty::Duration::minutes(*switch_minutes), *beta};
  }

  try {
    std::string frame;
    if (shutdown) frame = simty::serve::encode_shutdown();
    else if (stats) frame = simty::serve::encode_stats_request();
    else frame = simty::serve::encode_request(req);

    const std::string reply = simty::serve::query(socket_path, frame);
    if (shutdown) {
      std::printf("shutdown=%d\n",
                  simty::serve::is_shutdown_frame(reply) ? 1 : 0);
      return 0;
    }
    const simty::snapshot::Reader reader(reply);
    if (reader.has_section("simty-error")) {
      simty::snapshot::SectionReader s =
          reader.section("simty-error", simty::serve::kProtocolVersion);
      std::fprintf(stderr, "simty_query: server error: %s\n", s.str().c_str());
      return 1;
    }
    if (stats) print_stats(simty::serve::decode_stats(reply));
    else print_response(simty::serve::decode_response(reply));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simty_query: %s\n", e.what());
    return 1;
  }
}
