// simty_query: client for the simty_serve sweep daemon.
//
//   simty_query --socket /tmp/simty.sock [run options]
//   simty_query --socket /tmp/simty.sock --stats
//   simty_query --socket /tmp/simty.sock --shutdown
//
// A request is a whole exp::ExperimentConfig (serve::Request), so the
// daemon serves any config. The run options are simty_run's config flags,
// parsed by the same table (cli::parse_flags), with the same defaults:
//   --workload W --apps N --hours H --minutes M --seed N --no-system-alarms
//   --doze --fixed-interval S --drx-cycle MS --wur --wur-budget MS
//   --hw-levels 2|3|4
// plus this tool's own:
//   --policy native|simty|exact|simty-dur|fixed   (one; default simty)
//   --beta-switch-at-minutes M --beta B           (the sweep lever)
// --beta is the β of the beta switch (> 0), not the base β that
// simty_run --beta sets; the base β stays at its default.
//
// A malformed or out-of-range value ("3h", "-1", "nan", "1e300" hours) is
// a usage error (exit 2), never another request.
//
// Output is one key=value line per response field, machine-greppable, the
// paging rows (pages_answered ... wur_triggers) included:
//   cached=1 warm_started=0 total_j=... average_power_mw=...

#include <cstdio>
#include <exception>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cli/options.hpp"
#include "serve/serve_core.hpp"
#include "serve/server.hpp"
#include "snapshot/snapshot.hpp"

namespace {

using simty::cli::FlagKind;
using simty::cli::FlagValue;

int usage() {
  std::fprintf(stderr,
               "usage: simty_query --socket <path> "
               "[--stats | --shutdown | run options]\n"
               "run options: simty_run's config flags (--workload --apps\n"
               "             --hours --minutes --seed --no-system-alarms --doze\n"
               "             --fixed-interval --drx-cycle --wur --wur-budget\n"
               "             --hw-levels), one --policy P, and a beta switch:\n"
               "             --beta-switch-at-minutes M --beta B (B is the\n"
               "             switch's β, not the base β of simty_run --beta)\n");
  return 2;
}

struct Query {
  std::string socket_path;
  bool stats = false;
  bool shutdown = false;
  simty::serve::Request req;
  std::optional<simty::Duration> switch_at;
  std::optional<double> switch_beta;
};

// simty_query's own flags, over `q`.
std::vector<simty::cli::Flag> query_flags(Query& q) {
  using simty::cli::store;
  return {
      {"--socket", FlagKind::kText, store(q.socket_path), "needs a path"},
      {"--stats", FlagKind::kSwitch, store(q.stats)},
      {"--shutdown", FlagKind::kSwitch, store(q.shutdown)},
      {"--policy", FlagKind::kText,
       [&q](const FlagValue& v) {
         const auto p = simty::exp::parse_policy(v.text);
         if (p) q.req.policy = *p;
         return p.has_value();
       },
       "needs native|simty|exact|simty-dur|fixed"},
      {"--beta-switch-at-minutes", FlagKind::kDuration, store(q.switch_at),
       "needs non-negative minutes", 0, std::numeric_limits<long long>::max(),
       simty::Duration::minutes(1)},
      // The switch's β: simty_run --beta is the base β.
      {"--beta", FlagKind::kNumber,
       [&q](const FlagValue& v) {
         q.switch_beta = v.number;
         return v.number > 0.0;
       },
       "needs a positive value"},
  };
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
  Query q;
  q.req.policy = simty::exp::PolicyKind::kSimty;
  std::string error =
      simty::cli::parse_flags({argv + 1, argv + argc}, query_flags(q), q.req);
  if (error.empty() && q.switch_at.has_value() != q.switch_beta.has_value()) {
    error = "--beta-switch-at-minutes and --beta go together";
  }
  if (error.empty() && q.socket_path.empty()) error = "--socket is required";
  if (!error.empty()) {
    std::fprintf(stderr, "simty_query: %s\n", error.c_str());
    return usage();
  }
  if (q.switch_at) {
    q.req.beta_switch =
        simty::exp::ExperimentConfig::BetaSwitch{*q.switch_at, *q.switch_beta};
  }

  try {
    std::string frame;
    if (q.shutdown) frame = simty::serve::encode_shutdown();
    else if (q.stats) frame = simty::serve::encode_stats_request();
    else frame = simty::serve::encode_request(q.req);

    const std::string reply = simty::serve::query(q.socket_path, frame);
    if (q.shutdown) {
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
    if (q.stats) print_stats(simty::serve::decode_stats(reply));
    else print_response(simty::serve::decode_response(reply));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simty_query: %s\n", e.what());
    return 1;
  }
}
