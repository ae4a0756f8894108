#include "serve/runtime.hpp"

#include <pthread.h>

#include <csignal>
#include <stdexcept>
#include <utility>

#include "telemetry/json.hpp"

namespace eus::serve {

namespace {

/// The signals that start a drain: SIGINT and SIGTERM.
sigset_t shutdown_signals() noexcept {
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  return mask;
}

}  // namespace

const char* to_string(Phase p) noexcept {
  switch (p) {
    case Phase::eBooting:
      return "booting";
    case Phase::eRunning:
      return "running";
    case Phase::eDraining:
      return "draining";
    case Phase::eHalting:
      return "halting";
    case Phase::eHalted:
      return "halted";
  }
  return "?";
}

bool RuntimeState::legal(Phase from, Phase to) noexcept {
  switch (from) {
    case Phase::eBooting:
      return to == Phase::eRunning || to == Phase::eDraining;
    case Phase::eRunning:
      return to == Phase::eDraining;
    case Phase::eDraining:
      return to == Phase::eHalting;
    case Phase::eHalting:
      return to == Phase::eHalted;
    case Phase::eHalted:
      return false;
  }
  return false;
}

bool RuntimeState::transition(Phase from, Phase to) noexcept {
  if (!legal(from, to)) return false;
  return phase_.compare_exchange_strong(from, to, std::memory_order_acq_rel,
                                        std::memory_order_acquire);
}

void Daemon::leave_runtime() noexcept {
  if (runtime_ != nullptr) runtime_->release(*this);
}

ServeRuntime::ServeRuntime(RuntimeConfig config)
    : config_(std::move(config)) {
  if (config_.signal_thread) {
    // Block the shutdown signals before the caller builds its daemon: the
    // Server's evaluation ThreadPool spawns threads in its constructor, and
    // every thread must inherit the blocked mask or a process-directed
    // SIGTERM could hit one of them and take the default (fatal) action
    // instead of the signal thread's sigwait.
    const sigset_t mask = shutdown_signals();
    pthread_sigmask(SIG_BLOCK, &mask, nullptr);
  }
  if (!config_.runlog_path.empty()) {
    log_ = std::make_unique<RequestLog>(config_.runlog_path);
  }
}

ServeRuntime::~ServeRuntime() {
  // A daemon that outlives the runtime must not call back into it.
  if (daemon_ != nullptr) release(*daemon_);
  halt();
}

void ServeRuntime::release(Daemon& daemon) noexcept {
  halt();
  const std::lock_guard lock(halt_mutex_);
  daemon_ = nullptr;
  daemon.runtime_ = nullptr;
}

void ServeRuntime::boot(Daemon& daemon) {
  {
    const std::lock_guard lock(halt_mutex_);
    if (daemon_ != nullptr) throw std::logic_error("runtime already booted");
    if (halted_) return;  // halted before boot: nothing left to run
    daemon_ = &daemon;
    daemon.runtime_ = this;
  }
  uptime_.reset();
  if (config_.signal_thread) {
    // The mask was blocked in the constructor (before any thread existed),
    // so this thread's sigwait is the only consumer.  It is blocked again
    // around the spawn so the signal thread has it blocked from its first
    // instruction, whichever thread boots: halt_recorder wakes it with a
    // SIGTERM of its own.
    const sigset_t mask = shutdown_signals();
    sigset_t previous;
    pthread_sigmask(SIG_BLOCK, &mask, &previous);
    signal_thread_ = std::thread([this] { signal_loop(); });
    pthread_sigmask(SIG_SETMASK, &previous, nullptr);
  }
  {
    const std::lock_guard lock(mutex_);
    if (halt_requested_) {
      // A shutdown beat the boot: never bind, never accept.  run()/halt()
      // take the eBooting → eDraining edge from here.
      return;
    }
  }
  daemon.start();
  state_.transition(Phase::eBooting, Phase::eRunning);
  log_lifecycle("running");
  if (config_.diagnostics_period_s > 0.0) {
    diagnostics_thread_ = std::thread([this] { diagnostics_loop(); });
  }
}

void ServeRuntime::run() {
  {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return halt_requested_; });
  }
  halt();
}

void ServeRuntime::request_halt() noexcept {
  {
    const std::lock_guard lock(mutex_);
    halt_requested_ = true;
  }
  cv_.notify_all();
}

void ServeRuntime::halt() {
  const std::lock_guard halt_lock(halt_mutex_);
  if (halted_) return;
  halted_ = true;
  request_halt();  // unblock run() waiters

  // eBooting → eDraining covers a halt before (or instead of) eRunning.
  if (!state_.transition(Phase::eRunning, Phase::eDraining)) {
    state_.transition(Phase::eBooting, Phase::eDraining);
  }
  log_lifecycle("draining");
  if (daemon_ != nullptr) {
    daemon_->halt_acceptor();
    count_lifecycle("halt_acceptor");
    daemon_->halt_queue();
    count_lifecycle("halt_queue");
  }

  state_.transition(Phase::eDraining, Phase::eHalting);
  log_lifecycle("halting");
  if (daemon_ != nullptr) {
    daemon_->halt_workers();
    count_lifecycle("halt_workers");
  }
  halt_recorder();

  state_.transition(Phase::eHalting, Phase::eHalted);
  log_lifecycle("halted");
}

void ServeRuntime::halt_recorder() {
  stop_threads_.store(true);
  cv_.notify_all();
  if (diagnostics_thread_.joinable()) diagnostics_thread_.join();
  if (signal_thread_.joinable()) {
    // A signal sent to the thread itself ends its sigwait at once; the
    // thread sees the stop flag and returns.  Were a real signal consumed
    // in the meantime, the wake stays pending on the thread and is
    // discarded when it exits.
    pthread_kill(signal_thread_.native_handle(), SIGTERM);
    signal_thread_.join();
  }
  write_diagnostics("final");
  count_lifecycle("halt_recorder");
}

void ServeRuntime::count_lifecycle(const char* step) {
  if (daemon_ == nullptr) return;
  daemon_->metrics()
      .counter(std::string(daemon_->metric_prefix()) + ".lifecycle." + step)
      .add();
}

void ServeRuntime::signal_loop() {
  // Sleeps until SIGINT or SIGTERM arrives, from outside or from
  // halt_recorder's wake.  sigwait runs on this ordinary thread, so no
  // async-signal-safety constraints apply to what we do on receipt.
  const sigset_t mask = shutdown_signals();
  while (!stop_threads_.load()) {
    int sig = 0;
    if (::sigwait(&mask, &sig) == 0) request_halt();
  }
}

void ServeRuntime::diagnostics_loop() {
  const auto period =
      std::chrono::duration<double>(config_.diagnostics_period_s);
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      const bool stopping = cv_.wait_for(lock, period, [&] {
        return stop_threads_.load(std::memory_order_relaxed);
      });
      if (stopping) return;
    }
    write_diagnostics("periodic");
  }
}

void ServeRuntime::write_diagnostics(const char* event) {
  if (log_ == nullptr || daemon_ == nullptr) return;
  const MetricsSnapshot snap = daemon_->metrics().snapshot();
  JsonObject o;
  o.field("type", "diagnostics");
  o.field("event", event);
  o.field("t_s", uptime_.seconds());
  o.field("phase", to_string(state_.phase()));
  append_snapshot(o, snap);
  log_->write(o.str());
}

void ServeRuntime::log_lifecycle(const char* phase) {
  if (log_ == nullptr) return;
  JsonObject o;
  o.field("type", "lifecycle");
  o.field("t_s", uptime_.seconds());
  o.field("phase", phase);
  log_->write(o.str());
}

}  // namespace eus::serve
