#pragma once

// eus_router's engine: a thin, protocol-preserving proxy in front of a
// fleet of eus_served backends.  Clients speak the exact same
// length-prefixed JSON protocol to the router that they would to a single
// daemon — the router parses each request just enough to schedule it, then
// forwards the payload and relays the response verbatim, so fleet-routed
// fronts are bit-identical to single-daemon ones.
//
// Scheduling (docs/fleet.md):
//  - Eligibility: Nix Machine-style capability tags per backend
//    (fleet/config.hpp) filter by request mode + resolved scenario.
//  - Cache affinity: cacheable requests (nsga2 / pareto-query) follow the
//    consistent-hash ring over the request fingerprint (fleet/ring.hpp),
//    so a scenario's cached front lives on a stable shard.  Catalog
//    aliases are resolved by the router *before* hashing — backends need
//    no catalog, and a reload never strands cached fronts.
//  - Policy: non-cacheable requests (and failover reordering) go through
//    the configured RoutePolicy (fleet/policy.hpp): round-robin, min-min
//    completion time, or max-utility-per-energy.
//  - Failover: a transport failure marks the backend down (passive health)
//    and the request retries exactly once on a different backend; the
//    periodic health checker (healthz probes with timeout + exponential
//    backoff) marks backends up again.
//
// The router executes nothing itself, so there is no worker queue:
// connection threads proxy inline, and backpressure is the per-backend
// max_in_flight cap plus each backend's own bounded queue.  The relay
// copies only what it changes: the client's payload is forwarded by
// reference unless an alias rewrote its scenario, the plan points into
// the fleet snapshot the request holds, and the backend's answer moves
// through to the client.  The front door
// (listener, per-connection readers, framing, healthz/metricsz and the
// shared admin verbs) is the same serve::Endpoint eus_served uses; the
// Router is its handler and adds the fleet's fields, the fleet admin verbs
// and the plan-plus-forward path.
//
// Lifecycle: the Router is a serve::Daemon, so eus_router boots, takes its
// signals and halts under the same ServeRuntime as eus_served
// (docs/runtime.md).  halt_acceptor() stops accepting (live connections
// then get 503 for new work), halt_queue() stops the health prober, and
// halt_workers() joins the connections, each after its proxied call.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario_catalog.hpp"
#include "fleet/config.hpp"
#include "fleet/policy.hpp"
#include "fleet/ring.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/runtime.hpp"
#include "telemetry/metrics.hpp"
#include "util/stopwatch.hpp"

namespace eus::fleet {

/// 502-style code for "every routable backend failed transport" (the
/// serve layer's codes stop at 503; the router adds the gateway case).
inline constexpr int kCodeBadGateway = 502;

struct RouterConfig {
  /// TCP port; 0 binds an ephemeral port.  Loopback only, like eus_served.
  std::uint16_t port = 0;
  FleetConfig fleet;
  RoutePolicy policy = RoutePolicy::kMinMin;
  /// Seconds between active healthz probes; 0 disables the prober (tests
  /// drive probe_now() directly; passive mark-down still applies).
  double health_period_s = 2.0;
  /// Per-probe connect/receive budget; a probe waits at least 1 ms.
  double probe_timeout_ms = 1000.0;
  /// Down backends are re-probed with exponential backoff capped here.
  double max_backoff_s = 30.0;
  std::size_t max_frame_bytes = serve::kMaxFrameBytes;
  /// Optional external sinks (must outlive the router).
  MetricsRegistry* metrics = nullptr;
  serve::RequestLog* log = nullptr;
  /// Optional alias catalog: aliases resolve against its snapshot before
  /// fingerprinting/forwarding, and catalog-reload swaps it.
  SharedCatalog* catalog = nullptr;
};

/// Point-in-time public view of one backend (healthz/adminz and tests).
struct BackendInfo {
  std::string name;
  std::uint16_t port = 0;
  bool enabled = true;
  bool up = true;
  std::size_t in_flight = 0;
  std::size_t max_in_flight = 0;
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;
  double speed_factor = 1.0;
  double watts = 1.0;
  std::vector<std::string> capabilities;
};

class Router final : public serve::Daemon, private serve::EndpointHandler {
 public:
  explicit Router(RouterConfig config);
  ~Router();  ///< halts (through its runtime, if any) and drains

  /// Binds, listens, spawns the acceptor and (when configured) the health
  /// prober.  Throws std::runtime_error when the port cannot be bound.
  void start() override;

  /// The bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const noexcept {
    return endpoint_.port();
  }

  // Ordered teardown steps (Daemon::stop() and ServeRuntime::halt() run
  // them in this order).  Idempotent.
  void halt_acceptor() override;  ///< stop accepting; new work gets 503
  void halt_queue() override;     ///< stop the health prober
  void halt_workers() override;   ///< join connections after their calls

  // Live administration (the adminz verbs land here; also callable
  // directly from tests).
  /// Returns false when no backend has that name.
  bool set_backend_enabled(const std::string& name, bool enabled);
  /// Swaps the fleet config atomically; backends present in both keep
  /// their health state, in-flight counts and counters.
  void reload_fleet(FleetConfig next);

  /// One synchronous health sweep over every backend due for a probe
  /// (ignores the backoff schedule when `force`).  The prober thread calls
  /// this periodically; tests call it directly.
  void probe_now(bool force = false);

  [[nodiscard]] std::vector<BackendInfo> backend_info() const;
  [[nodiscard]] MetricsRegistry& metrics() noexcept override {
    return *metrics_;
  }
  [[nodiscard]] const char* metric_prefix() const noexcept override {
    return "fleet";
  }
  [[nodiscard]] RoutePolicy policy() const noexcept {
    return config_.policy;
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// Mutable per-backend runtime state; shared_ptr so a fleet reload can
  /// swap the set while proxied calls still hold their backend.
  struct Backend {
    BackendConfig config;
    std::atomic<bool> enabled{true};
    std::atomic<bool> up{true};
    std::atomic<std::size_t> in_flight{0};
    std::atomic<std::uint64_t> consecutive_failures{0};
    /// Next allowed probe, in Clock nanoseconds-since-epoch (atomic so the
    /// prober and force-probes need no lock).
    std::atomic<std::int64_t> next_probe_ns{0};
    Counter* metric_requests = nullptr;
    Counter* metric_failures = nullptr;
    Gauge* metric_in_flight = nullptr;

    std::mutex pool_mutex;
    std::vector<serve::ClientConnection> pool;  ///< idle, ready to reuse
  };

  /// One immutable fleet generation: the backend set plus the hash ring
  /// over it, both built in the config's order (a position the ring
  /// prefers indexes `backends`).  Snapshot-swapped on reload.
  struct Fleet {
    std::vector<std::shared_ptr<Backend>> backends;
    HashRing ring{64};
  };

  [[nodiscard]] std::shared_ptr<const Fleet> fleet_snapshot() const;
  [[nodiscard]] std::shared_ptr<Fleet> build_fleet(
      FleetConfig config, const Fleet* previous) const;

  // EndpointHandler: the fleet's healthz/get-config fields, the fleet
  // admin verbs, and plan plus forward for allocate and delta.
  void healthz_fields(JsonObject& out) const override;
  void config_fields(JsonObject& out) const override;
  [[nodiscard]] std::string admin(const serve::ServeRequest& request) override;
  void serve(const serve::Reply& reply, serve::ServeRequest request,
             const std::string& payload, const Stopwatch& total) override;

  /// Schedules + proxies one allocate or delta request; returns the
  /// response payload to relay.
  [[nodiscard]] std::string route(serve::ServeRequest request,
                                  const std::string& payload,
                                  const Stopwatch& total);
  /// Ordered candidate backends for one request (eligible, enabled, up,
  /// under their in-flight cap), best first.  `affinity` is the
  /// consistent-hash ring key: the request fingerprint, or the tenant id
  /// for tenant-scoped requests (archive affinity).  The pointers are
  /// `fleet`'s own, valid while the caller holds that snapshot.
  [[nodiscard]] std::vector<Backend*> plan(
      const Fleet& fleet, const serve::ServeRequest& request,
      const std::string& affinity);
  /// One proxied call on one backend; empty optional = transport failure
  /// (the backend is already marked down and counted).
  [[nodiscard]] std::optional<std::string> forward(
      Backend& backend, const std::string& payload);

  void mark_down(Backend& backend);
  void mark_up(Backend& backend);
  bool probe_backend(Backend& backend);
  void prober_loop();

  void append_backends_json(std::string& out) const;
  void log_request(const serve::ServeRequest& request, int code,
                   double total_ms, const std::string& backend,
                   bool retried);

  RouterConfig config_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;

  mutable std::mutex fleet_mutex_;
  std::shared_ptr<const Fleet> fleet_;  ///< guarded by fleet_mutex_

  std::thread prober_;
  std::mutex prober_mutex_;
  std::condition_variable prober_cv_;
  bool prober_stop_ = false;  ///< guarded by prober_mutex_

  std::atomic<bool> started_{false};
  std::atomic<std::uint64_t> rr_ticket_{0};

  Counter* metric_responses_ok_ = nullptr;
  Counter* metric_errors_ = nullptr;
  Counter* metric_retries_ = nullptr;
  Counter* metric_no_backend_ = nullptr;
  Counter* metric_upstream_failed_ = nullptr;
  Counter* metric_backend_down_ = nullptr;
  Counter* metric_backend_up_ = nullptr;
  Counter* metric_probes_ = nullptr;
  Counter* metric_fleet_reloads_ = nullptr;
  Gauge* metric_backends_up_ = nullptr;
  Histogram* metric_latency_ = nullptr;

  serve::Endpoint endpoint_;  ///< last: its readers use everything above
};

}  // namespace eus::fleet
