#pragma once

// The process lifecycle both daemons run under: a phased state machine plus
// the threads and teardown order around an engine it does not build —
// eus_served's Server (server.hpp) or eus_router's Router
// (fleet/router.hpp), each a Daemon (below).
//
// Phases form a one-way street:
//
//     eBooting ──> eRunning ──> eDraining ──> eHalting ──> eHalted
//         └──────────────────────^
//
// eBooting→eDraining covers a shutdown signal that lands before boot: the
// runtime then halts cleanly without ever starting the daemon.
// Transitions are CAS-enforced (RuntimeState::transition refuses anything
// not drawn above), so concurrent halt paths — a signal, an explicit
// halt(), a destructor — agree on a single linear history.
//
// The runtime owns the process's things only:
//  - the signal mask and a signal thread: SIGINT/SIGTERM are blocked in the
//    constructor, before the caller builds its daemon (every later thread
//    inherits the mask), then consumed via sigwait on this thread, which
//    sleeps until one arrives; halt_recorder() wakes it with a SIGTERM
//    sent to the thread alone, so a halt never waits on a poll tick;
//  - the JSONL run log, the alias catalog and the phase cell, which the
//    caller hands to its daemon's config (log(), catalog(), state());
//  - a diagnostics thread snapshotting the daemon's MetricsRegistry into
//    the run log ("type":"diagnostics" lines);
//  - the halt order: the daemon's halt_acceptor() → halt_queue() →
//    halt_workers(), then halt_recorder() (final diagnostics snapshot,
//    thread joins), with the phase advanced in between.  Each step runs
//    once and is counted as <prefix>.lifecycle.<step>.
// docs/runtime.md walks through the whole lifecycle.

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/scenario_catalog.hpp"
#include "serve/net.hpp"
#include "telemetry/metrics.hpp"
#include "util/stopwatch.hpp"

namespace eus::serve {

enum class Phase { eBooting, eRunning, eDraining, eHalting, eHalted };

[[nodiscard]] const char* to_string(Phase p) noexcept;

/// The atomic phase cell.  Shared read-only with the Server (healthz and
/// adminz get-config report the phase); only the runtime transitions it.
class RuntimeState {
 public:
  [[nodiscard]] Phase phase() const noexcept {
    return phase_.load(std::memory_order_acquire);
  }

  /// Atomically advances `from` → `to`; returns false when the machine is
  /// not in `from`, or when the edge is not one of the legal transitions.
  bool transition(Phase from, Phase to) noexcept;

  /// Whether `from` → `to` is an edge of the phase diagram above.
  [[nodiscard]] static bool legal(Phase from, Phase to) noexcept;

 private:
  std::atomic<Phase> phase_{Phase::eBooting};
};

class ServeRuntime;

/// What a ServeRuntime drives.  The runtime calls start() once from boot()
/// (never when a halt beat the boot), then each halt step once, in the
/// order declared, from halt().  Every step must be idempotent and safe on
/// a daemon that never started.  A daemon's destructor calls
/// leave_runtime() first, so the runtime halts it while it is still whole
/// and never calls into it afterwards.
class Daemon {
 public:
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds and starts serving.  Throws std::runtime_error when the port
  /// cannot be bound.
  virtual void start() = 0;
  virtual void halt_acceptor() = 0;  ///< stop accepting connections
  virtual void halt_queue() = 0;     ///< refuse new work
  virtual void halt_workers() = 0;   ///< finish accepted work; join threads
  [[nodiscard]] virtual MetricsRegistry& metrics() noexcept = 0;
  /// Namespace of the lifecycle counters: "serve" | "fleet".
  [[nodiscard]] virtual const char* metric_prefix() const noexcept = 0;

  /// The three halt steps in order, without a runtime.  Idempotent.
  void stop() {
    halt_acceptor();
    halt_queue();
    halt_workers();
  }

 protected:
  Daemon() = default;
  ~Daemon() = default;
  /// Halts the runtime driving this daemon, if any, and detaches from it.
  void leave_runtime() noexcept;

 private:
  friend class ServeRuntime;
  ServeRuntime* runtime_ = nullptr;
};

struct RuntimeConfig {
  /// JSONL run log path; empty = no log.
  std::string runlog_path;
  /// Diagnostics snapshot period; 0 = no diagnostics thread.
  double diagnostics_period_s = 0.0;
  /// Block SIGINT/SIGTERM and consume them on a dedicated thread (the
  /// daemons set this; tests drive request_halt() directly instead).
  bool signal_thread = false;
};

/// Owns the process lifecycle end to end: construct, build the daemon,
/// boot(daemon), run() until a signal or request_halt(), and the ordered
/// halt() teardown.  Runtime and daemon may be destroyed in either order.
class ServeRuntime {
 public:
  explicit ServeRuntime(RuntimeConfig config);
  ~ServeRuntime();  ///< halts (and drains) if still running

  ServeRuntime(const ServeRuntime&) = delete;
  ServeRuntime& operator=(const ServeRuntime&) = delete;

  /// Adopts `daemon`, spawns the signal thread (when configured), starts
  /// the daemon and advances eBooting → eRunning.  If a halt was requested
  /// before or during boot, the daemon is never started and the runtime
  /// stays in eBooting for run()/halt() to finish off.
  void boot(Daemon& daemon);

  /// Blocks until a halt is requested (signal thread or request_halt()),
  /// then runs halt().  Returns once the runtime is eHalted.
  void run();

  /// Requests a halt from any thread; returns immediately.
  void request_halt() noexcept;

  /// Ordered teardown: phase transitions interleaved with the daemon's
  /// halt steps, then halt_recorder().  Idempotent; concurrent callers
  /// serialize and the losers return after the winner finishes.
  void halt();

  [[nodiscard]] Phase phase() const noexcept { return state_.phase(); }
  [[nodiscard]] const RuntimeState& state() const noexcept { return state_; }
  [[nodiscard]] SharedCatalog& catalog() noexcept { return catalog_; }
  /// The run log opened from runlog_path (null when none).
  [[nodiscard]] RequestLog* log() noexcept { return log_.get(); }

 private:
  friend class Daemon;
  /// Called from the daemon's destructor: halt(), then forget it.
  void release(Daemon& daemon) noexcept;
  void signal_loop();
  void diagnostics_loop();
  void halt_recorder();
  void count_lifecycle(const char* step);
  void write_diagnostics(const char* event);
  void log_lifecycle(const char* phase);

  RuntimeConfig config_;
  SharedCatalog catalog_;
  RuntimeState state_;
  std::unique_ptr<RequestLog> log_;  ///< from runlog_path
  Stopwatch uptime_;

  std::mutex mutex_;
  std::condition_variable cv_;
  bool halt_requested_ = false;         ///< guarded by mutex_
  std::atomic<bool> stop_threads_{false};
  std::thread signal_thread_;
  std::thread diagnostics_thread_;

  std::mutex halt_mutex_;
  bool halted_ = false;  ///< guarded by halt_mutex_
  /// Written under halt_mutex_ by boot() and release(), never while the
  /// diagnostics thread (which reads it) runs.
  Daemon* daemon_ = nullptr;
};

}  // namespace eus::serve
