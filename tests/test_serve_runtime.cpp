// ServeRuntime lifecycle tests: the phase machine's legal/illegal edges,
// the Daemon seam (the order and phase of every call, and no call into a
// destroyed daemon in either destruction order), boot/run/halt ordering,
// idempotent double-stop, drain-under-load completeness, a halt that lands
// during eBooting, the real signal thread, the diagnostics thread's
// run-log snapshots, and a router drained under the runtime.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fleet/router.hpp"
#include "serve/client.hpp"
#include "serve/handlers.hpp"
#include "serve/runtime.hpp"
#include "serve/server.hpp"
#include "util/json_value.hpp"
#include "util/stopwatch.hpp"

namespace eus::serve {
namespace {

util::JsonValue one_shot(std::uint16_t port, const std::string& request) {
  ClientConnection connection;
  connection.connect(port);
  return util::parse_json(connection.call(request));
}

int code_of(const util::JsonValue& doc) {
  return static_cast<int>(doc.number_or("code", -1.0));
}

constexpr const char* kSmallScenario =
    R"("scenario":{"name":"custom","tasks":10,"window_s":30,"seed":11})";

/// `config` wired to `runtime` as eus_served wires its Server: the
/// runtime's run log, catalog and phase.
ServerConfig wired(ServeRuntime& runtime, ServerConfig config = {}) {
  config.log = runtime.log();
  config.catalog = &runtime.catalog();
  config.state = &runtime.state();
  return config;
}

/// A daemon that records each call the runtime makes, with the phase the
/// runtime was in at the time.  `calls` outlives it, so a test can check
/// that nothing arrives after its destructor.
class RecordingDaemon final : public Daemon {
 public:
  RecordingDaemon(const ServeRuntime& runtime,
                  std::vector<std::string>& calls)
      : observed_(runtime), calls_(calls) {}
  ~RecordingDaemon() {
    leave_runtime();
    calls_.emplace_back("destroyed");
  }

  void start() override { record("start"); }
  void halt_acceptor() override { record("halt_acceptor"); }
  void halt_queue() override { record("halt_queue"); }
  void halt_workers() override { record("halt_workers"); }
  MetricsRegistry& metrics() noexcept override { return metrics_; }
  const char* metric_prefix() const noexcept override { return "fake"; }

  std::vector<Phase> phases;

 private:
  void record(const char* call) {
    calls_.emplace_back(call);
    phases.push_back(observed_.phase());
  }

  const ServeRuntime& observed_;
  std::vector<std::string>& calls_;
  MetricsRegistry metrics_;
};

TEST(RuntimeState, OnlyLegalEdgesTransition) {
  using enum Phase;
  // The legal one-way street.
  EXPECT_TRUE(RuntimeState::legal(eBooting, eRunning));
  EXPECT_TRUE(RuntimeState::legal(eBooting, eDraining));
  EXPECT_TRUE(RuntimeState::legal(eRunning, eDraining));
  EXPECT_TRUE(RuntimeState::legal(eDraining, eHalting));
  EXPECT_TRUE(RuntimeState::legal(eHalting, eHalted));
  // No skipping, no reversing, no leaving eHalted.
  EXPECT_FALSE(RuntimeState::legal(eBooting, eHalting));
  EXPECT_FALSE(RuntimeState::legal(eBooting, eHalted));
  EXPECT_FALSE(RuntimeState::legal(eRunning, eBooting));
  EXPECT_FALSE(RuntimeState::legal(eRunning, eHalted));
  EXPECT_FALSE(RuntimeState::legal(eDraining, eRunning));
  EXPECT_FALSE(RuntimeState::legal(eDraining, eHalted));
  EXPECT_FALSE(RuntimeState::legal(eHalting, eDraining));
  EXPECT_FALSE(RuntimeState::legal(eHalted, eBooting));
  EXPECT_FALSE(RuntimeState::legal(eHalted, eRunning));

  RuntimeState state;
  EXPECT_EQ(state.phase(), eBooting);
  // An illegal edge refuses and leaves the phase untouched.
  EXPECT_FALSE(state.transition(eBooting, eHalted));
  EXPECT_EQ(state.phase(), eBooting);
  // A legal edge from the wrong current phase also refuses.
  EXPECT_FALSE(state.transition(eRunning, eDraining));
  EXPECT_EQ(state.phase(), eBooting);
  // Walk the full street.
  EXPECT_TRUE(state.transition(eBooting, eRunning));
  EXPECT_TRUE(state.transition(eRunning, eDraining));
  EXPECT_TRUE(state.transition(eDraining, eHalting));
  EXPECT_TRUE(state.transition(eHalting, eHalted));
  EXPECT_EQ(state.phase(), eHalted);
  EXPECT_FALSE(state.transition(eHalted, eBooting));
}

TEST(ServeRuntime, HaltsADaemonInOrder) {
  std::vector<std::string> calls;
  {
    RuntimeConfig config;
    ServeRuntime runtime(config);
    RecordingDaemon daemon(runtime, calls);

    runtime.boot(daemon);
    runtime.halt();
    const std::vector<std::string> in_order = {"start", "halt_acceptor",
                                               "halt_queue", "halt_workers"};
    EXPECT_EQ(calls, in_order);
    ASSERT_EQ(daemon.phases.size(), 4U);
    EXPECT_EQ(daemon.phases[1], Phase::eDraining);  // the first halt step
    EXPECT_EQ(daemon.phases[3], Phase::eHalting);   // the last
    EXPECT_EQ(runtime.phase(), Phase::eHalted);
    // Each step is counted under the daemon's own prefix.
    const MetricsSnapshot snap = daemon.metrics().snapshot();
    EXPECT_EQ(snap.counters.at("fake.lifecycle.halt_acceptor"), 1U);
    EXPECT_EQ(snap.counters.at("fake.lifecycle.halt_recorder"), 1U);

    // A second halt calls nothing.
    runtime.halt();
    EXPECT_EQ(calls, in_order);
  }

  // A halt before boot never starts the daemon; the halt steps still run,
  // since a daemon must take them unstarted.
  calls.clear();
  {
    RuntimeConfig config;
    ServeRuntime runtime(config);
    RecordingDaemon daemon(runtime, calls);
    runtime.request_halt();
    runtime.boot(daemon);
    EXPECT_EQ(runtime.phase(), Phase::eBooting);
    runtime.run();
    EXPECT_EQ(runtime.phase(), Phase::eHalted);
    const std::vector<std::string> halted_only = {
        "halt_acceptor", "halt_queue", "halt_workers"};
    EXPECT_EQ(calls, halted_only);
  }
}

TEST(ServeRuntime, NeverCallsADestroyedDaemon) {
  // Daemon declared after the runtime, so destroyed first: its destructor
  // halts the runtime while the daemon is whole; the runtime's destructor
  // then calls nothing.
  std::vector<std::string> calls;
  {
    RuntimeConfig config;
    ServeRuntime runtime(config);
    auto daemon = std::make_unique<RecordingDaemon>(runtime, calls);
    runtime.boot(*daemon);
    daemon.reset();
    EXPECT_EQ(runtime.phase(), Phase::eHalted);
  }
  const std::vector<std::string> halted_then_destroyed = {
      "start", "halt_acceptor", "halt_queue", "halt_workers", "destroyed"};
  EXPECT_EQ(calls, halted_then_destroyed);

  // Runtime destroyed first: it halts the daemon, and the daemon's own
  // destructor no longer reaches the runtime.
  calls.clear();
  {
    RuntimeConfig config;
    auto runtime = std::make_unique<ServeRuntime>(config);
    RecordingDaemon daemon(*runtime, calls);
    runtime->boot(daemon);
    runtime.reset();
    EXPECT_EQ(calls.back(), "halt_workers");
  }
  EXPECT_EQ(calls, halted_then_destroyed);
}

TEST(ServeRuntime, BootServesThenHaltsInOrder) {
  RuntimeConfig config;
  ServeRuntime runtime(config);
  ServerConfig server_config = wired(runtime);
  server_config.queue_depth = 4;
  server_config.workers = 1;
  Server server(server_config);
  EXPECT_EQ(runtime.phase(), Phase::eBooting);

  runtime.boot(server);
  EXPECT_EQ(runtime.phase(), Phase::eRunning);
  ASSERT_NE(server.port(), 0);

  // healthz reports the live phase while running.
  const util::JsonValue health =
      one_shot(server.port(), R"({"type":"healthz"})");
  EXPECT_EQ(code_of(health), kCodeOk);
  EXPECT_EQ(health.string_or("phase", ""), "running");

  runtime.request_halt();
  runtime.run();  // returns once halted
  EXPECT_EQ(runtime.phase(), Phase::eHalted);

  // Every ordered teardown step ran exactly once.
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("serve.lifecycle.halt_acceptor"), 1U);
  EXPECT_EQ(snap.counters.at("serve.lifecycle.halt_queue"), 1U);
  EXPECT_EQ(snap.counters.at("serve.lifecycle.halt_workers"), 1U);
  EXPECT_EQ(snap.counters.at("serve.lifecycle.halt_recorder"), 1U);
}

TEST(ServeRuntime, DoubleHaltIsIdempotent) {
  RuntimeConfig config;
  ServeRuntime runtime(config);
  Server server(wired(runtime));
  runtime.boot(server);
  runtime.halt();
  EXPECT_EQ(runtime.phase(), Phase::eHalted);
  runtime.halt();  // second halt: no-op, no double teardown
  EXPECT_EQ(runtime.phase(), Phase::eHalted);

  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("serve.lifecycle.halt_acceptor"), 1U);
  EXPECT_EQ(snap.counters.at("serve.lifecycle.halt_queue"), 1U);
  EXPECT_EQ(snap.counters.at("serve.lifecycle.halt_workers"), 1U);
  EXPECT_EQ(snap.counters.at("serve.lifecycle.halt_recorder"), 1U);
}

TEST(ServeRuntime, DrainAnswersEveryAcceptedRequestUnderFullQueue) {
  RuntimeConfig config;
  ServeRuntime runtime(config);
  ServerConfig server_config = wired(runtime);
  server_config.queue_depth = 4;
  server_config.workers = 1;
  Server server(server_config);
  runtime.boot(server);

  const std::string slow =
      std::string(R"({"type":"allocate","mode":"nsga2",)") + kSmallScenario +
      R"(,"nsga2":{"population":8,"generations":5000000},
         "deadline_ms":2000})";
  ClientConnection in_flight_client;
  ClientConnection queued_client;
  in_flight_client.connect(server.port());
  queued_client.connect(server.port());

  // One request executing, one queued, then halt mid-load.
  const Stopwatch clock;
  in_flight_client.send(slow);
  while (server.in_flight() < 1 && clock.seconds() < 15.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.in_flight(), 1U);
  queued_client.send(slow);
  while (server.queue_size() < 1 && clock.seconds() < 15.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.queue_size(), 1U);

  std::thread halter([&runtime] { runtime.halt(); });
  const util::JsonValue first = util::parse_json(in_flight_client.receive());
  const util::JsonValue second = util::parse_json(queued_client.receive());
  halter.join();

  // Both accepted requests were answered (partial: the deadline burned
  // while draining), nothing dropped, and the runtime is fully halted.
  EXPECT_EQ(code_of(first), kCodePartial);
  EXPECT_EQ(code_of(second), kCodePartial);
  EXPECT_EQ(runtime.phase(), Phase::eHalted);
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("serve.dropped"), 0U);

  ClientConnection late;
  EXPECT_THROW(late.connect(server.port()), ConnectError);
}

TEST(ServeRuntime, HaltDuringBootingNeverAcceptsConnections) {
  RuntimeConfig config;
  ServeRuntime runtime(config);
  Server server(wired(runtime));

  // The shutdown wins the race against boot: the listener never starts.
  runtime.request_halt();
  runtime.boot(server);
  EXPECT_EQ(runtime.phase(), Phase::eBooting);
  EXPECT_EQ(server.port(), 0);  // never bound

  runtime.run();
  EXPECT_EQ(runtime.phase(), Phase::eHalted);

  // The teardown steps still ran (each a no-op against unstarted parts)
  // and the phase took the eBooting → eDraining edge, not eRunning.
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("serve.lifecycle.halt_recorder"), 1U);
}

TEST(ServeRuntime, SignalThreadConsumesSigtermAndDrains) {
  RuntimeConfig config;
  config.signal_thread = true;
  ServeRuntime runtime(config);
  Server server(wired(runtime));
  runtime.boot(server);
  EXPECT_EQ(runtime.phase(), Phase::eRunning);

  // A process-directed SIGTERM: consumed by the runtime's signal thread
  // via sigwait (the signal is blocked everywhere else), which then
  // requests the halt — run() returns once eHalted.
  ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);
  runtime.run();
  EXPECT_EQ(runtime.phase(), Phase::eHalted);
}

TEST(ServeRuntime, SignalThreadConsumesSigintAndHalts) {
  std::vector<std::string> calls;
  RuntimeConfig config;
  config.signal_thread = true;
  ServeRuntime runtime(config);
  RecordingDaemon daemon(runtime, calls);
  runtime.boot(daemon);
  ASSERT_EQ(::kill(::getpid(), SIGINT), 0);
  runtime.run();
  EXPECT_EQ(runtime.phase(), Phase::eHalted);
  const std::vector<std::string> in_order = {"start", "halt_acceptor",
                                             "halt_queue", "halt_workers"};
  EXPECT_EQ(calls, in_order);
}

TEST(ServeRuntime, HaltWakesTheSignalThreadAtOnce) {
  // The signal thread sleeps until a signal arrives and a halt wakes it,
  // so a halt never waits on a poll tick.  Each cycle lets the thread
  // reach its wait first; a thread that polled on a 100 ms tick would
  // hold each of these ten halts for most of a tick.
  std::vector<std::string> calls;
  double halting_s = 0.0;
  for (int cycle = 0; cycle < 10; ++cycle) {
    RuntimeConfig config;
    config.signal_thread = true;
    ServeRuntime runtime(config);
    RecordingDaemon daemon(runtime, calls);
    runtime.boot(daemon);
    EXPECT_EQ(runtime.phase(), Phase::eRunning);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const Stopwatch halting;
    runtime.halt();
    halting_s += halting.seconds();
    EXPECT_EQ(runtime.phase(), Phase::eHalted);
  }
  EXPECT_LT(halting_s, 0.25);
  EXPECT_EQ(calls.size(), 10U * 5U);  // four calls and "destroyed" each
}

TEST(ServeRuntime, DiagnosticsThreadSnapshotsMetricsIntoRunLog) {
  const std::string log_path =
      testing::TempDir() + "/eus_runtime_diag_test.jsonl";
  std::remove(log_path.c_str());
  {
    RuntimeConfig config;
    config.runlog_path = log_path;
    config.diagnostics_period_s = 0.02;
    ServeRuntime runtime(config);
    Server server(wired(runtime));
    runtime.boot(server);
    // Serve one request so the snapshots have non-zero serve counters.
    ASSERT_EQ(
        code_of(one_shot(
            server.port(),
            std::string(
                R"({"type":"allocate","mode":"heuristic:min-energy",)") +
                kSmallScenario + "}")),
        kCodeOk);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    runtime.halt();
  }

  std::ifstream in(log_path);
  std::string line;
  std::size_t periodic = 0;
  bool saw_final = false;
  std::vector<std::string> lifecycle;
  while (std::getline(in, line)) {
    const util::JsonValue doc = util::parse_json(line);
    const std::string type = doc.string_or("type", "");
    if (type == "diagnostics") {
      ASSERT_NE(doc.get("counters"), nullptr);
      if (doc.string_or("event", "") == "periodic") ++periodic;
      if (doc.string_or("event", "") == "final") {
        saw_final = true;
        // The final snapshot is written after halt_workers: the full
        // teardown history is in it.
        EXPECT_GE(doc.get("counters")->number_or(
                      "serve.lifecycle.halt_workers", 0.0),
                  1.0);
      }
    } else if (type == "lifecycle") {
      lifecycle.push_back(doc.string_or("phase", ""));
    }
  }
  EXPECT_GE(periodic, 1U);
  EXPECT_TRUE(saw_final);
  const std::vector<std::string> expected = {"running", "draining",
                                             "halting", "halted"};
  EXPECT_EQ(lifecycle, expected);
  std::remove(log_path.c_str());
}

TEST(ServeRuntime, DrainsTheRouter) {
  const std::string log_path =
      testing::TempDir() + "/eus_runtime_router_test.jsonl";
  std::remove(log_path.c_str());
  Server b1(ServerConfig{});
  Server b2(ServerConfig{});
  b1.start();
  b2.start();
  {
    RuntimeConfig config;
    config.runlog_path = log_path;
    ServeRuntime runtime(config);
    fleet::RouterConfig router_config;
    for (const Server* backend : {&b1, &b2}) {
      fleet::BackendConfig b;
      b.name = backend == &b1 ? "b1" : "b2";
      b.port = backend->port();
      router_config.fleet.backends.push_back(b);
    }
    router_config.health_period_s = 0.0;
    router_config.log = runtime.log();
    router_config.catalog = &runtime.catalog();
    fleet::Router router(std::move(router_config));
    runtime.boot(router);
    EXPECT_EQ(runtime.phase(), Phase::eRunning);

    // A slow proxied nsga2 (a huge budget cut by the deadline) is running
    // on a backend when the halt arrives.
    ClientConnection client;
    client.connect(router.port());
    client.send(std::string(R"({"type":"allocate","mode":"nsga2",)") +
                kSmallScenario +
                R"(,"nsga2":{"population":8,"generations":5000000},
                   "deadline_ms":2000})");
    const Stopwatch clock;
    while (b1.in_flight() + b2.in_flight() < 1 && clock.seconds() < 15.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(b1.in_flight() + b2.in_flight(), 1U);
    runtime.request_halt();
    runtime.run();

    // The router answered the call before its connections were joined.
    EXPECT_EQ(code_of(util::parse_json(client.receive())), kCodePartial);
    EXPECT_EQ(runtime.phase(), Phase::eHalted);
    EXPECT_EQ(router.metrics().counter("fleet.lifecycle.halt_workers").value(),
              1U);
    ClientConnection late;
    EXPECT_THROW(late.connect(router.port()), ConnectError);
  }

  // The router's config line, then the runtime's lifecycle lines.
  std::ifstream in(log_path);
  std::string line;
  std::vector<std::string> story;
  while (std::getline(in, line)) {
    const util::JsonValue doc = util::parse_json(line);
    const std::string type = doc.string_or("type", "");
    if (type == "config") {
      EXPECT_EQ(doc.string_or("service", ""), "eus_router");
      story.push_back(type);
    } else if (type == "lifecycle") {
      story.push_back(doc.string_or("phase", ""));
    }
  }
  const std::vector<std::string> expected = {"config", "running", "draining",
                                             "halting", "halted"};
  EXPECT_EQ(story, expected);
  std::remove(log_path.c_str());
}

}  // namespace
}  // namespace eus::serve
