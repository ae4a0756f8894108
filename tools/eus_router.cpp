// eus_router — the fleet front end.  Listens on loopback, speaks the same
// length-prefixed JSON frames as eus_served (docs/serving.md), and forwards
// allocate requests to a fleet of eus_served backends described by a JSON
// fleet config (docs/fleet.md): capability-tag eligibility, a pluggable
// routing policy (min-min / max-upe / round-robin), consistent-hash cache
// affinity for nsga2 and pareto-query requests, health-checked failover
// with a single retry, and a live admin plane (enable-backend,
// disable-backend, fleet-reload, catalog-reload).
//
//   eus_router --fleet fleet.json               # port EUS_SERVE_PORT/7461
//   eus_router --fleet fleet.json --policy max-upe --port 0
//   EUS_RUNLOG=router.jsonl eus_router --fleet fleet.json
//
// The lifecycle is ServeRuntime's, as for eus_served (docs/runtime.md):
// SIGINT/SIGTERM drain gracefully — stop accepting, stop the prober, answer
// every in-flight proxied request — then exit 0.
//
// Exit codes: 0 clean shutdown, 1 startup failure, 2 usage error.

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "fleet/config.hpp"
#include "fleet/router.hpp"
#include "serve/runtime.hpp"
#include "util/env.hpp"

#ifndef EUS_VERSION
#define EUS_VERSION "0.0.0"
#endif

namespace {

using namespace eus;
using namespace eus::fleet;

constexpr int kExitOk = 0;
constexpr int kExitStartupFailure = 1;
constexpr int kExitUsage = 2;

struct CliOptions {
  std::uint16_t port = serve_port();
  std::string fleet_path;
  RoutePolicy policy = RoutePolicy::kMinMin;
  double health_period_s = 2.0;
  double probe_timeout_ms = 1000.0;
  double max_backoff_s = 30.0;
  std::optional<std::string> runlog;  // --runlog; EUS_RUNLOG when unset
};

void print_usage(std::ostream& out) {
  out << "usage: eus_router --fleet <file> [options]\n"
         "  --fleet <file>       fleet config JSON (required):\n"
         "                       {\"backends\": [{\"name\", \"port\",\n"
         "                       \"capabilities\"?, \"speed_factor\"?,\n"
         "                       \"watts\"?, \"max_in_flight\"?, "
         "\"enabled\"?}]}\n"
         "  --port <n>           listen port on 127.0.0.1 (0 = ephemeral;\n"
         "                       default EUS_SERVE_PORT or 7461)\n"
         "  --policy <p>         min-min | max-upe | round-robin\n"
         "                       (default min-min)\n"
         "  --health-period <s>  seconds between healthz probes; 0 disables\n"
         "                       active probing (default 2)\n"
         "  --probe-timeout <ms> per-probe budget, >= 1 (default 1000)\n"
         "  --max-backoff <s>    probe backoff cap for down backends\n"
         "                       (default 30)\n"
         "  --runlog <path>      JSONL request log; off or none = no log\n"
         "                       (default EUS_RUNLOG; unset = no log)\n"
         "  --version            print the version and exit\n"
         "  -h, --help           this text\n"
         "\n"
         "The fleet is live-tunable without a restart: `eus_client admin\n"
         "enable-backend|disable-backend <name>` and `eus_client admin\n"
         "fleet-reload --fleet <file>`; see docs/fleet.md.\n";
}

std::optional<double> parse_seconds(const char* text) {
  char* end = nullptr;
  const double s = std::strtod(text, &end);
  if (end == text || *end != '\0' || s < 0.0) return std::nullopt;
  return s;
}

std::optional<CliOptions> parse_args(int argc, char** argv) {
  CliOptions opts;
  const auto value_of = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "eus_router: " << flag << " needs a value\n";
      return nullptr;
    }
    return argv[++i];
  };
  const auto seconds_flag = [&](int& i, const char* flag,
                                double& out) -> bool {
    const char* v = value_of(i, flag);
    if (v == nullptr) return false;
    const std::optional<double> s = parse_seconds(v);
    if (!s) {
      std::cerr << "eus_router: " << flag
                << " wants a non-negative number, got '" << v << "'\n";
      return false;
    }
    out = *s;
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fleet") {
      const char* v = value_of(i, "--fleet");
      if (v == nullptr) return std::nullopt;
      opts.fleet_path = v;
    } else if (arg == "--port") {
      const char* v = value_of(i, "--port");
      if (v == nullptr) return std::nullopt;
      char* end = nullptr;
      const long long n = std::strtoll(v, &end, 10);
      if (end == v || *end != '\0' || n < 0 || n > 65535) {
        std::cerr << "eus_router: --port wants 0..65535, got '" << v
                  << "'\n";
        return std::nullopt;
      }
      opts.port = static_cast<std::uint16_t>(n);
    } else if (arg == "--policy") {
      const char* v = value_of(i, "--policy");
      if (v == nullptr) return std::nullopt;
      const std::optional<RoutePolicy> p = policy_from_slug(v);
      if (!p) {
        std::cerr << "eus_router: --policy wants min-min|max-upe|"
                     "round-robin, got '"
                  << v << "'\n";
        return std::nullopt;
      }
      opts.policy = *p;
    } else if (arg == "--health-period") {
      if (!seconds_flag(i, "--health-period", opts.health_period_s)) {
        return std::nullopt;
      }
    } else if (arg == "--probe-timeout") {
      if (!seconds_flag(i, "--probe-timeout", opts.probe_timeout_ms)) {
        return std::nullopt;
      }
      if (!(opts.probe_timeout_ms >= 1.0)) {  // NaN too
        std::cerr << "eus_router: --probe-timeout wants at least 1 ms, got '"
                  << argv[i] << "'\n";
        return std::nullopt;
      }
    } else if (arg == "--max-backoff") {
      if (!seconds_flag(i, "--max-backoff", opts.max_backoff_s)) {
        return std::nullopt;
      }
    } else if (arg == "--runlog") {
      const char* v = value_of(i, "--runlog");
      if (v == nullptr) return std::nullopt;
      opts.runlog = v;
    } else if (arg == "--version") {
      std::cout << "eus_router " << EUS_VERSION << '\n';
      std::exit(kExitOk);
    } else if (arg == "-h" || arg == "--help") {
      print_usage(std::cout);
      std::exit(kExitOk);
    } else {
      std::cerr << "eus_router: unknown option '" << arg << "'\n";
      return std::nullopt;
    }
  }
  if (opts.fleet_path.empty()) {
    std::cerr << "eus_router: --fleet <file> is required\n";
    return std::nullopt;
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<CliOptions> parsed = parse_args(argc, argv);
  if (!parsed) {
    print_usage(std::cerr);
    return kExitUsage;
  }
  const CliOptions& opts = *parsed;

  ::signal(SIGPIPE, SIG_IGN);

  try {
    FleetConfig fleet = load_fleet_config(opts.fleet_path);
    // The runtime blocks the shutdown signals before any thread exists.
    serve::ServeRuntime runtime(
        {.runlog_path = runlog_path("", opts.runlog), .signal_thread = true});
    Router router({.port = opts.port,
                   .fleet = std::move(fleet),
                   .policy = opts.policy,
                   .health_period_s = opts.health_period_s,
                   .probe_timeout_ms = opts.probe_timeout_ms,
                   .max_backoff_s = opts.max_backoff_s,
                   .log = runtime.log(),
                   .catalog = &runtime.catalog()});
    runtime.boot(router);
    std::cout << "eus_router " << EUS_VERSION << " listening on 127.0.0.1:"
              << router.port() << " (policy "
              << to_string(router.policy()) << ", backends "
              << router.backend_info().size() << ", health period "
              << opts.health_period_s << " s)" << std::endl;
    runtime.run();
    std::cout << "eus_router: drained, bye (phase "
              << to_string(runtime.phase()) << ")" << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "eus_router: " << e.what() << '\n';
    return kExitStartupFailure;
  }
  return kExitOk;
}
