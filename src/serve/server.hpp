#pragma once

// eus_served's engine, decomposed into the components the runtime halts in
// order (docs/runtime.md): an Endpoint (net.hpp: listen socket, accept
// thread, per-connection reader threads and the verbs every daemon
// answers) and a WorkerCrew (a bounded request queue with explicit
// backpressure and the elastic pool of workers that executes its requests
// through handlers.cpp — NSGA-II offspring-pair tasks fan out onto one
// shared ThreadPool, so concurrent requests share the machine instead of
// oversubscribing it).  The Server class is the facade wiring them
// together, the Endpoint's handler, and the Daemon that ServeRuntime
// (runtime.hpp) drives through the process lifecycle.
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
// Warm-start archive: built from ServerConfig like the FrontCache.  start()
// loads its checkpoint before the listener is up; halt_workers() writes it
// once nothing can change the archive, and only if start() loaded it.
//
// Shutdown: stop() runs the ordered teardown halt_acceptor() →
// halt_queue() → halt_workers(); each step is individually callable (the
// runtime drives them one by one) and idempotent.  Workers drain every
// queued request before exiting, so no request that was accepted into the
// queue is ever dropped by shutdown.
//
// Responses to a single connection are written in request order; clients
// wanting concurrency open several connections (eus_client --concurrency
// does exactly that).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/scenario_catalog.hpp"
#include "serve/front_cache.hpp"
#include "serve/handlers.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/runtime.hpp"
#include "telemetry/metrics.hpp"
#include "tenant/archive_store.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace eus::serve {

/// The request-executing workers and the bounded FIFO of jobs they run,
/// under one mutex.  try_push never blocks: a full or closed crew refuses
/// the job, and the Server answers that with a 503 instead of buffering
/// unboundedly.  Capacity and worker target are live knobs (the
/// set-queue-depth and set-workers verbs): a smaller capacity only tightens
/// future admission, a larger target spawns workers at once, and a smaller
/// one retires the surplus between jobs.  Neither drops a queued job.
/// close() refuses new work while the workers still run every queued job;
/// halt() closes, lets them drain, and joins them.
class WorkerCrew {
 public:
  using Job = std::packaged_task<void()>;

  /// No worker runs until the first resize().  Capacity clamps to >= 1.
  explicit WorkerCrew(std::size_t capacity);
  ~WorkerCrew() { halt(); }

  WorkerCrew(const WorkerCrew&) = delete;
  WorkerCrew& operator=(const WorkerCrew&) = delete;

  /// Queues `job` and wakes one worker, unless the crew is full or closed;
  /// on false the caller still owns `job`.
  [[nodiscard]] bool try_push(Job&& job);

  /// Sets the worker target (clamped >= 1): spawns up to it at once, and
  /// wakes every worker so the surplus retires.  Ignored once closed.
  void resize(std::size_t target);

  /// Live capacity (clamped >= 1); jobs queued beyond it stay queued.
  void set_capacity(std::size_t capacity);

  /// Refuses new jobs; queued ones still run.  Idempotent.
  void close();

  /// Closes, lets the workers run every queued job, joins every thread.
  /// Idempotent.
  void halt();

  [[nodiscard]] bool closed() const;
  [[nodiscard]] std::size_t size() const;  ///< jobs queued, not running
  [[nodiscard]] std::size_t capacity() const;
  [[nodiscard]] std::size_t target() const;
  [[nodiscard]] std::size_t active() const;  ///< workers not yet retired

 private:
  struct Member {
    std::thread thread;
    bool done = false;  ///< set under mutex_ as the worker leaves
  };

  void work(Member& self);

  mutable std::mutex mutex_;
  std::condition_variable wake_;  ///< a job, a close, or a lower target
  std::deque<Job> jobs_;
  std::size_t capacity_;
  bool closed_ = false;
  std::list<Member> members_;  ///< running and retired, not yet joined
  std::size_t target_ = 0;
  std::size_t active_ = 0;
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
  /// Per-tenant warm-start archive bounds (docs/tenant.md); max_tenants = 0
  /// (the default) keeps no archive and refuses the archive-* admin verbs.
  tenant::ArchiveConfig archive{.max_tenants = 0};
  /// Archive checkpoint path; empty = in-memory only.
  std::string archive_path;
};

class Server final : public Daemon, private EndpointHandler {
 public:
  explicit Server(ServerConfig config = {});
  ~Server();  ///< halts (through its runtime, if any) and drains

  /// Loads the archive checkpoint, then binds, listens and spawns the
  /// acceptor + workers.  Throws std::runtime_error when the port cannot
  /// be bound.
  void start() override;

  /// The bound port (valid after start(); resolves port 0 requests).
  [[nodiscard]] std::uint16_t port() const noexcept {
    return endpoint_.port();
  }

  // Ordered teardown steps (Daemon::stop() and ServeRuntime::halt() run
  // them in this order).  Together they answer every queued and in-flight
  // request, then close connections and join every thread.  Idempotent.
  void halt_acceptor() override;  ///< stop accepting; join the accept thread
  void halt_queue() override;  ///< refuse new work; queued jobs still run
  /// Drains + joins the workers, closes connections, then writes the
  /// archive checkpoint.
  void halt_workers() override;

  // Live admin knobs (the adminz verbs land here; also callable directly,
  // e.g. from tests).  Values are clamped >= 1.
  void set_queue_capacity(std::size_t depth);
  void set_cache_capacity(std::size_t entries);  ///< no-op when disabled
  void set_workers(std::size_t count);

  [[nodiscard]] MetricsRegistry& metrics() noexcept override {
    return *metrics_;
  }
  [[nodiscard]] const char* metric_prefix() const noexcept override {
    return "serve";
  }
  [[nodiscard]] std::size_t queue_size() const;
  [[nodiscard]] std::size_t queue_capacity() const;
  [[nodiscard]] std::size_t worker_target() const;
  [[nodiscard]] std::size_t worker_active() const;
  [[nodiscard]] std::size_t eval_threads() const;  ///< resolved pool size
  /// Computations a worker is running now; inline cache hits never count.
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return in_flight_.load(std::memory_order_relaxed);
  }

 private:
  // EndpointHandler: the daemon's own healthz/get-config fields, its admin
  // verbs, and the allocate/delta path (inline cache hit or the queue).
  void healthz_fields(JsonObject& out) const override;
  void config_fields(JsonObject& out) const override;
  [[nodiscard]] std::string admin(const ServeRequest& request) override;
  void serve(const Reply& reply, ServeRequest request,
             const std::string& payload, const Stopwatch& total) override;

  /// Runs one computation on a worker; `queue_ms` is its wait in the crew.
  HandleResult execute_job(const ServeRequest& request, double queue_ms);
  /// Sends a handler's result and records it (counters, latency, log).
  void answer(const Reply& reply, const ServeRequest& request,
              const HandleResult& result, const Stopwatch& total);
  /// Sends the 503 for a request the queue would not take.
  void refuse(const Reply& reply, const ServeRequest& request,
              const Stopwatch& total);
  void log_request(const ServeRequest& request, int code, double total_ms,
                   bool dropped, bool cache_hit);

  ServerConfig config_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<FrontCache> cache_;
  std::unique_ptr<tenant::ArchiveStore> archive_;  ///< null when disabled
  std::unique_ptr<ThreadPool> eval_pool_;  ///< null when eval_threads == 1
  HandlerContext handler_context_;

  std::atomic<bool> started_{false};
  /// start() loaded the checkpoint; halt_workers() writes it once.
  std::atomic<bool> checkpoint_due_{false};
  std::atomic<std::size_t> in_flight_{0};

  // Metric handles, resolved once at start().
  Counter* metric_responses_ok_ = nullptr;
  Counter* metric_errors_ = nullptr;
  Counter* metric_dropped_ = nullptr;
  Counter* metric_deadline_expired_ = nullptr;
  Gauge* metric_queue_depth_ = nullptr;
  Gauge* metric_in_flight_ = nullptr;
  Gauge* metric_workers_ = nullptr;
  TimerMetric* metric_service_ = nullptr;
  TimerMetric* metric_queue_wait_ = nullptr;
  Histogram* metric_latency_ = nullptr;

  WorkerCrew crew_;  ///< after everything its jobs use
  Endpoint endpoint_;  ///< last: its readers use everything above
};

}  // namespace eus::serve
