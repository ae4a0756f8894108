#pragma once

// eus_served's engine, decomposed into the components the runtime halts in
// order (docs/runtime.md): an Acceptor (listen socket + accept thread), a
// ConnectionSet (per-connection reader threads), a bounded request queue
// with explicit backpressure, and a WorkerCrew (elastic worker pool that
// executes allocate requests through handlers.cpp — NSGA-II evaluation
// batches fan out onto one shared ThreadPool, so concurrent requests share
// the machine instead of oversubscribing it).  The Server class is the
// facade wiring them together; ServeRuntime (runtime.hpp) owns the
// process-level lifecycle around it.
//
// Flow control: a connection reads one frame and parses it.  Only
// computation is queued: a cache miss (NSGA-II evolution or heuristic
// construction) and every delta.  An allocate whose front is already in
// the FrontCache is answered inline from the connection thread, as are
// healthz/metricsz/adminz, so cached fronts, health and the admin plane
// never wait behind NSGA-II work.  When the queue is full the client gets
// an immediate 503-style JSON error — the queue never grows beyond its
// configured depth — and once it is closed (draining) every allocate and
// delta, hit or miss, gets that 503.
//
// Live administration: set_queue_capacity / set_cache_capacity /
// set_workers retune the running server without a restart (the adminz
// verbs land here), and a SharedCatalog pointer lets catalog-reload swap
// the alias catalog atomically — aliases resolve to concrete specs at
// accept time, so in-flight requests finish against the catalog they
// arrived under.
//
// Shutdown: stop() runs the ordered teardown halt_acceptor() →
// halt_queue() → halt_workers(); each step is individually callable (the
// runtime drives them one by one), idempotent, and counted under
// serve.lifecycle.*.  Workers drain every queued request before exiting,
// so no request that was accepted into the queue is ever dropped by
// shutdown.
//
// Responses to a single connection are written in request order; clients
// wanting concurrency open several connections (eus_client --concurrency
// does exactly that).

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/scenario_catalog.hpp"
#include "serve/bounded_queue.hpp"
#include "serve/front_cache.hpp"
#include "serve/handlers.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "telemetry/metrics.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace eus::serve {

class RuntimeState;  // runtime.hpp — healthz/adminz report its phase

// RequestLog, Acceptor and ConnectionSet moved to serve/net.hpp — they are
// shared with the fleet router (fleet/router.hpp).

/// One queued computation (an allocate cache miss or a delta), or a
/// WorkerCrew control token.
struct RequestJob {
  ServeRequest request;
  Stopwatch waited;  ///< starts at enqueue: measures queue time
  std::promise<HandleResult> promise;
  bool poison = false;  ///< control token: the popping worker re-checks
                        ///< the crew target and retires when over it
};

/// Elastic pool of request-executing workers over one BoundedQueue.
/// Growing spawns threads; shrinking front-pushes poison tokens so a
/// blocked worker wakes, re-checks the target, and retires — queued work
/// is never dropped by a resize.  halt() closes the queue and joins after
/// the drain.
class WorkerCrew {
 public:
  WorkerCrew(BoundedQueue<RequestJob>& queue,
             std::function<void(RequestJob&)> execute);
  ~WorkerCrew() { halt(); }

  WorkerCrew(const WorkerCrew&) = delete;
  WorkerCrew& operator=(const WorkerCrew&) = delete;

  void start(std::size_t count) { resize(count); }

  /// Live resize (clamped >= 1).  A poison token popped after a
  /// grow-back is discarded, so shrink/grow races self-correct.
  void resize(std::size_t target);

  /// Closes the queue, lets the workers drain every queued job, joins
  /// every thread.  Idempotent.
  void halt();

  [[nodiscard]] std::size_t target() const;
  [[nodiscard]] std::size_t active() const;

 private:
  struct Member {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void worker_loop(Member* self);
  void spawn_locked();
  void reap_locked();

  BoundedQueue<RequestJob>& queue_;
  std::function<void(RequestJob&)> execute_;
  mutable std::mutex mutex_;
  std::list<Member> members_;
  std::size_t target_ = 0;
  std::size_t active_ = 0;
  bool halted_ = false;
};

struct ServerConfig {
  /// TCP port; 0 binds an ephemeral port (query it via port()).  The
  /// listener binds the loopback interface only.
  std::uint16_t port = 0;
  /// Bounded request-queue depth; overflow is answered with a 503-style
  /// error (EUS_SERVE_QUEUE_DEPTH for the daemon).  Live-tunable via the
  /// set-queue-depth admin verb.
  std::size_t queue_depth = 64;
  /// Request-executing worker threads (each runs one queued computation
  /// at a time).  Live-tunable via the set-workers admin verb.
  std::size_t workers = 2;
  /// Shared NSGA-II evaluation pool: 0 = hardware concurrency, 1 = inline
  /// evaluation (no pool).  All concurrent requests share this pool.
  std::size_t eval_threads = 1;
  /// LRU front-cache capacity in results; 0 disables caching.
  /// Live-tunable via the set-cache-entries admin verb (unless disabled).
  std::size_t cache_entries = 64;
  /// Reject request frames larger than this many payload bytes.
  std::size_t max_frame_bytes = kMaxFrameBytes;
  /// Optional external metrics sink (must outlive the server); the server
  /// owns a private registry when null.
  MetricsRegistry* metrics = nullptr;
  /// Optional JSONL request log (must outlive the server).
  RequestLog* log = nullptr;
  /// Optional alias catalog (must outlive the server): allocate requests
  /// naming a non-built-in scenario resolve against its current snapshot
  /// at accept time, and the catalog-reload admin verb swaps it.
  SharedCatalog* catalog = nullptr;
  /// Optional runtime phase source (must outlive the server): healthz and
  /// adminz get-config report its phase when set.
  const RuntimeState* state = nullptr;
  /// Optional per-tenant warm-start archive (must outlive the server):
  /// tenant-scoped allocate and delta requests read and feed it, and the
  /// archive-* admin verbs administer it (docs/tenant.md).
  tenant::ArchiveStore* archive = nullptr;
};

class Server {
 public:
  explicit Server(ServerConfig config = {});
  ~Server();  ///< stops and drains if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the acceptor + workers.  Throws
  /// std::runtime_error when the port cannot be bound.
  void start();

  /// The bound port (valid after start(); resolves port 0 requests).
  [[nodiscard]] std::uint16_t port() const noexcept {
    return acceptor_.port();
  }

  /// Async-signal-friendly shutdown request: flips the drain flag and
  /// unblocks the acceptor.  The daemon's lifecycle thread then runs the
  /// ordered halt steps (or stop(), which runs all of them).
  void request_stop() noexcept;

  /// Graceful drain: halt_acceptor() → halt_queue() → halt_workers().
  /// Answers every queued and in-flight request, then closes connections
  /// and joins every thread.  Idempotent.
  void stop();

  // Ordered teardown steps.  Each is idempotent, must be called in the
  // order below (stop() and ServeRuntime::halt() do), and bumps its
  // serve.lifecycle.* counter on the first call.
  void halt_acceptor();  ///< stop accepting; join the accept thread
  void halt_queue();     ///< refuse new work; queued jobs stay poppable
  void halt_workers();   ///< drain + join workers, then close connections

  /// True once request_stop()/stop()/halt_acceptor()/halt_queue() has
  /// begun.
  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_relaxed);
  }

  // Live admin knobs (the adminz verbs land here; also callable directly,
  // e.g. from tests).  Values are clamped >= 1.
  void set_queue_capacity(std::size_t depth);
  void set_cache_capacity(std::size_t entries);  ///< no-op when disabled
  void set_workers(std::size_t count);

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return *metrics_; }
  [[nodiscard]] std::size_t queue_size() const;
  [[nodiscard]] std::size_t queue_capacity() const;
  [[nodiscard]] std::size_t worker_target() const;
  [[nodiscard]] std::size_t worker_active() const;
  [[nodiscard]] std::size_t eval_threads() const;  ///< resolved pool size
  /// Computations a worker is running now; inline cache hits never count.
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return in_flight_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const ServerConfig& config() const noexcept {
    return config_;
  }

 private:
  using Connection = ConnectionSet::Connection;

  void on_accept(int fd);
  void execute_job(RequestJob& job);
  void connection_loop(Connection* connection);
  /// Parses and dispatches one frame; returns false when the connection
  /// should close (fatal framing error).
  bool process_payload(Connection* connection, const std::string& payload);
  void send_payload(Connection* connection, const std::string& payload);
  /// Sends a handler's result and records it (counters, latency, log).
  void answer(Connection* connection, const ServeRequest& request,
              const HandleResult& result, const Stopwatch& total);
  /// Sends the 503 for a request the queue would not take.
  void refuse(Connection* connection, const ServeRequest& request,
              const Stopwatch& total);
  [[nodiscard]] std::string healthz_payload(const std::string& id) const;
  [[nodiscard]] std::string metricsz_payload(const std::string& id) const;
  [[nodiscard]] std::string adminz_payload(const ServeRequest& request);
  [[nodiscard]] std::string admin_config_payload(const std::string& id) const;
  void log_request(const ServeRequest& request, int code, double total_ms,
                   bool dropped, bool cache_hit);

  ServerConfig config_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<FrontCache> cache_;
  std::unique_ptr<ThreadPool> eval_pool_;  ///< null when eval_threads == 1
  HandlerContext handler_context_;

  std::unique_ptr<BoundedQueue<RequestJob>> queue_;
  std::unique_ptr<WorkerCrew> crew_;
  Acceptor acceptor_;
  ConnectionSet connections_;

  Stopwatch uptime_;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> acceptor_halted_{false};
  std::atomic<bool> queue_halted_{false};
  std::atomic<bool> workers_halted_{false};
  std::atomic<std::size_t> in_flight_{0};

  // Metric handles, resolved once at start().
  Counter* metric_connections_ = nullptr;
  Counter* metric_requests_ = nullptr;
  Counter* metric_responses_ok_ = nullptr;
  Counter* metric_errors_ = nullptr;
  Counter* metric_dropped_ = nullptr;
  Counter* metric_deadline_expired_ = nullptr;
  Counter* metric_admin_actions_ = nullptr;
  Counter* metric_halt_acceptor_ = nullptr;
  Counter* metric_halt_queue_ = nullptr;
  Counter* metric_halt_workers_ = nullptr;
  Gauge* metric_queue_depth_ = nullptr;
  Gauge* metric_in_flight_ = nullptr;
  Gauge* metric_workers_ = nullptr;
  TimerMetric* metric_service_ = nullptr;
  TimerMetric* metric_queue_wait_ = nullptr;
  Histogram* metric_latency_ = nullptr;
};

}  // namespace eus::serve
