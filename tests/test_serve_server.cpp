// Loopback integration tests for eus_served's engine: an in-process Server
// on an ephemeral port, driven through the real ClientConnection framing.
// Covers health/metrics, heuristic correctness, the bit-identical-to-
// StudyEngine guarantee for nsga2 mode, pareto-query cache resolution,
// deadline-expiry partial fronts, queue-overflow backpressure, inline
// cache-hit admission, malformed input, concurrent clients and graceful
// drain.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/study_engine.hpp"
#include "sched/evaluator.hpp"
#include "serve/client.hpp"
#include "serve/handlers.hpp"
#include "serve/server.hpp"
#include "util/json_value.hpp"
#include "util/stopwatch.hpp"

namespace eus::serve {
namespace {

util::JsonValue call_json(ClientConnection& connection,
                          const std::string& request) {
  return util::parse_json(connection.call(request));
}

util::JsonValue one_shot(std::uint16_t port, const std::string& request) {
  ClientConnection connection;
  connection.connect(port);
  return call_json(connection, request);
}

int code_of(const util::JsonValue& doc) {
  return static_cast<int>(doc.number_or("code", -1.0));
}

// A small custom scenario keeps every NSGA-II request fast.
constexpr const char* kSmallScenario =
    R"("scenario":{"name":"custom","tasks":10,"window_s":30,"seed":11})";

std::string small_nsga2_request() {
  return std::string(R"({"type":"allocate","mode":"nsga2",)") +
         kSmallScenario +
         R"(,"nsga2":{"population":8,"generations":4,
                      "seeds":["min-energy","max-utility"]}})";
}

TEST(ServeServer, HealthzReportsConfiguration) {
  ServerConfig config;
  config.queue_depth = 5;
  config.workers = 3;
  Server server(config);
  server.start();
  ASSERT_NE(server.port(), 0);

  const util::JsonValue doc =
      one_shot(server.port(), R"({"type":"healthz","id":"h1"})");
  EXPECT_EQ(code_of(doc), kCodeOk);
  EXPECT_EQ(doc.string_or("id", ""), "h1");
  EXPECT_EQ(doc.string_or("status", ""), "ok");
  EXPECT_EQ(doc.number_or("queue_capacity", 0.0), 5.0);
  EXPECT_EQ(doc.number_or("workers", 0.0), 3.0);
  const util::JsonValue* draining = doc.get("draining");
  ASSERT_NE(draining, nullptr);
  EXPECT_FALSE(draining->boolean);
  server.stop();
}

TEST(ServeServer, HeuristicResponseMatchesDirectEvaluation) {
  Server server;
  server.start();

  const util::JsonValue doc = one_shot(
      server.port(),
      std::string(
          R"({"type":"allocate","mode":"heuristic:min-energy",)") +
          kSmallScenario + "}");
  ASSERT_EQ(code_of(doc), kCodeOk) << doc.string_or("error", "");

  // Recompute offline through the same scenario constructor.
  ScenarioSpec spec;
  spec.name = "custom";
  spec.tasks = 10;
  spec.window_s = 30.0;
  spec.seed = 11;
  const Scenario scenario = build_scenario(spec);
  const Allocation allocation = make_seed(
      SeedHeuristic::kMinEnergy, scenario.system, scenario.trace);
  const Evaluation expected =
      Evaluator(scenario.system, scenario.trace).evaluate(allocation);

  const util::JsonValue* objectives = doc.get("objectives");
  ASSERT_NE(objectives, nullptr);
  EXPECT_EQ(objectives->number_or("energy", -1.0), expected.energy);
  EXPECT_EQ(objectives->number_or("utility", -1.0), expected.utility);

  const util::JsonValue* alloc_json = doc.get("allocation");
  ASSERT_NE(alloc_json, nullptr);
  const util::JsonValue* machine = alloc_json->get("machine");
  ASSERT_NE(machine, nullptr);
  ASSERT_EQ(machine->array.size(), allocation.machine.size());
  for (std::size_t i = 0; i < allocation.machine.size(); ++i) {
    EXPECT_EQ(static_cast<int>(machine->array[i].number),
              allocation.machine[i]);
  }
  server.stop();
}

TEST(ServeServer, Nsga2FrontIsBitIdenticalToOfflineStudyEngine) {
  Server server;
  server.start();
  const util::JsonValue doc = one_shot(server.port(), small_nsga2_request());
  ASSERT_EQ(code_of(doc), kCodeOk) << doc.string_or("error", "");
  const util::JsonValue* front = doc.get("front");
  ASSERT_NE(front, nullptr);
  ASSERT_FALSE(front->array.empty());
  server.stop();

  // The same run, offline: one StudyEngine population with the same base
  // seed, budget and greedy seeds.  The served front must match
  // bit-for-bit (JSON numbers round-trip exactly).
  ScenarioSpec spec;
  spec.name = "custom";
  spec.tasks = 10;
  spec.window_s = 30.0;
  spec.seed = 11;
  const Scenario scenario = build_scenario(spec);
  const UtilityEnergyProblem problem(scenario.system, scenario.trace);
  Nsga2Config base_config;
  base_config.population_size = 8;
  base_config.mutation_probability = 0.25;
  base_config.seed = spec.seed;
  PopulationSpec population;
  population.name = "served";
  population.seeds = {SeedHeuristic::kMinEnergy, SeedHeuristic::kMaxUtility};
  StudyEngine engine;
  const StudyResult offline =
      engine.run(problem, base_config, {4}, {population});
  const std::vector<EUPoint>& expected = offline.fronts.at(0).at(0);

  ASSERT_EQ(front->array.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(front->array[i].number_or("energy", -1.0),
              expected[i].energy);
    EXPECT_EQ(front->array[i].number_or("utility", -1.0),
              expected[i].utility);
  }
}

TEST(ServeServer, RepeatedRequestHitsTheCache) {
  Server server;
  server.start();
  ClientConnection connection;
  connection.connect(server.port());

  const util::JsonValue first = call_json(connection, small_nsga2_request());
  ASSERT_EQ(code_of(first), kCodeOk);
  EXPECT_EQ(first.string_or("cache", ""), "miss");

  const util::JsonValue second =
      call_json(connection, small_nsga2_request());
  ASSERT_EQ(code_of(second), kCodeOk);
  EXPECT_EQ(second.string_or("cache", ""), "hit");

  // The cached front is byte-identical to the computed one.
  ASSERT_EQ(first.get("front")->array.size(),
            second.get("front")->array.size());
  server.stop();
}

TEST(ServeServer, ParetoQueryResolvesAgainstCachedFront) {
  Server server;
  server.start();
  ClientConnection connection;
  connection.connect(server.port());

  const util::JsonValue computed =
      call_json(connection, small_nsga2_request());
  ASSERT_EQ(code_of(computed), kCodeOk);

  // Same scenario + budget, pareto-query mode: shares the fingerprint, so
  // it answers from the cache without re-evolving.
  const std::string query_request =
      std::string(R"({"type":"allocate","mode":"pareto-query",)") +
      kSmallScenario +
      R"(,"nsga2":{"population":8,"generations":4,
                   "seeds":["min-energy","max-utility"]}})";
  const util::JsonValue picked = call_json(connection, query_request);
  ASSERT_EQ(code_of(picked), kCodeOk) << picked.string_or("error", "");
  EXPECT_EQ(picked.string_or("cache", ""), "hit");
  ASSERT_NE(picked.get("objectives"), nullptr);

  // An impossible energy budget is unsatisfiable: 404.
  const std::string impossible =
      std::string(R"({"type":"allocate","mode":"pareto-query",)") +
      kSmallScenario +
      R"(,"nsga2":{"population":8,"generations":4,
                   "seeds":["min-energy","max-utility"]},
         "query":{"max_energy":1e-6}})";
  const util::JsonValue unsat = call_json(connection, impossible);
  EXPECT_EQ(code_of(unsat), kCodeUnsatisfiable);
  server.stop();
}

TEST(ServeServer, DeadlineExpiryReturnsPartialFront) {
  Server server;
  server.start();
  // A huge generation budget with a ~1 ms deadline: the slice loop must
  // stop early and return whatever front exists, flagged 206/partial.
  const std::string request =
      std::string(R"({"type":"allocate","mode":"nsga2",)") + kSmallScenario +
      R"(,"nsga2":{"population":8,"generations":100000},
         "deadline_ms":1})";
  const util::JsonValue doc = one_shot(server.port(), request);
  EXPECT_EQ(code_of(doc), kCodePartial);
  EXPECT_EQ(doc.string_or("status", ""), "partial");
  const util::JsonValue* exceeded = doc.get("deadline_exceeded");
  ASSERT_NE(exceeded, nullptr);
  EXPECT_TRUE(exceeded->boolean);
  ASSERT_NE(doc.get("front"), nullptr);
  EXPECT_FALSE(doc.get("front")->array.empty());
  EXPECT_LT(doc.number_or("generations", 1e18), 100000.0);

  // Partial results must not poison the cache: the same request without a
  // deadline gets a full-budget (cache-miss) run.  Use a smaller budget so
  // the full run stays fast.
  const std::string full =
      std::string(R"({"type":"allocate","mode":"nsga2",)") + kSmallScenario +
      R"(,"nsga2":{"population":8,"generations":3}})";
  const std::string partial_first =
      std::string(R"({"type":"allocate","mode":"nsga2",)") + kSmallScenario +
      R"(,"nsga2":{"population":8,"generations":3},"deadline_ms":0.000001})";
  const util::JsonValue partial = one_shot(server.port(), partial_first);
  EXPECT_EQ(code_of(partial), kCodePartial);
  const util::JsonValue complete = one_shot(server.port(), full);
  EXPECT_EQ(code_of(complete), kCodeOk);
  EXPECT_EQ(complete.string_or("cache", ""), "miss");
  EXPECT_EQ(complete.number_or("generations", 0.0), 3.0);
  server.stop();
}

TEST(ServeServer, QueueOverflowGetsExplicitBackpressure) {
  ServerConfig config;
  config.queue_depth = 1;
  config.workers = 1;
  Server server(config);
  server.start();

  // Occupy the single worker and the single queue slot with slow requests
  // (large budget, bounded by a deadline so the test stays fast).  The
  // deadline must comfortably exceed scheduling jitter on a loaded
  // machine: the queued request burns its budget while waiting, and the
  // occupancy window below must stay open long enough to observe.
  const std::string slow =
      std::string(R"({"type":"allocate","mode":"nsga2",)") + kSmallScenario +
      R"(,"nsga2":{"population":8,"generations":5000000},
         "deadline_ms":2000})";
  ClientConnection busy_a;
  ClientConnection busy_b;
  busy_a.connect(server.port());
  busy_b.connect(server.port());

  // Sequence the occupancy deterministically: the second request may only
  // be sent once the worker has picked up the first, otherwise it races
  // the (blocked, not yet scheduled) worker for the single queue slot and
  // can be the one rejected.
  const Stopwatch clock;
  busy_a.send(slow);
  while (server.in_flight() < 1 && clock.seconds() < 15.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.in_flight(), 1U);
  busy_b.send(slow);
  while (server.queue_size() < 1 && clock.seconds() < 15.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.queue_size(), 1U);

  // A third request finds the queue full: immediate 503, not a hang.
  const util::JsonValue rejected =
      one_shot(server.port(), small_nsga2_request());
  EXPECT_EQ(code_of(rejected), kCodeOverloaded);
  EXPECT_NE(rejected.string_or("error", "").find("queue"),
            std::string::npos);

  // healthz bypasses the queue and still answers under full load.
  const util::JsonValue health =
      one_shot(server.port(), R"({"type":"healthz"})");
  EXPECT_EQ(code_of(health), kCodeOk);

  // The slow requests complete (partial, but answered).
  EXPECT_EQ(static_cast<int>(
                util::parse_json(busy_a.receive()).number_or("code", -1.0)),
            kCodePartial);
  EXPECT_EQ(static_cast<int>(
                util::parse_json(busy_b.receive()).number_or("code", -1.0)),
            kCodePartial);

  server.stop();
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_GE(snap.counters.at("serve.dropped"), 1U);
}

// Holds the worker for about two seconds: a huge budget cut by a deadline
// (see QueueOverflowGetsExplicitBackpressure for the timing).
std::string slow_nsga2_request() {
  return std::string(R"({"type":"allocate","mode":"nsga2",)") +
         kSmallScenario +
         R"(,"nsga2":{"population":8,"generations":5000000},
            "deadline_ms":2000})";
}

void wait_until(const std::function<bool()>& ready) {
  const Stopwatch clock;
  while (!ready() && clock.seconds() < 15.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ServeServer, CacheHitsAnswerInlinePastAFullQueue) {
  ServerConfig config;
  config.queue_depth = 1;
  config.workers = 1;
  Server server(config);
  server.start();
  ClientConnection client;
  client.connect(server.port());
  ASSERT_EQ(call_json(client, small_nsga2_request()).string_or("cache", ""),
            "miss");

  // Occupy the single worker, then the single queue slot.
  ClientConnection busy_a;
  ClientConnection busy_b;
  busy_a.connect(server.port());
  busy_b.connect(server.port());
  busy_a.send(slow_nsga2_request());
  wait_until([&] { return server.in_flight() >= 1; });
  ASSERT_GE(server.in_flight(), 1U);
  busy_b.send(slow_nsga2_request());
  wait_until([&] { return server.queue_size() >= 1; });
  ASSERT_GE(server.queue_size(), 1U);

  // The cached front takes no queue slot and no worker: it answers now.
  const util::JsonValue hit = call_json(client, small_nsga2_request());
  EXPECT_EQ(code_of(hit), kCodeOk) << hit.string_or("error", "");
  EXPECT_EQ(hit.string_or("cache", ""), "hit");
  const util::JsonValue* timing = hit.get("timing");
  ASSERT_NE(timing, nullptr);
  EXPECT_EQ(timing->number_or("queue_ms", -1.0), 0.0);
  EXPECT_GE(server.in_flight(), 1U);

  // Computation still queues, so an uncached request meets the full queue.
  const std::string uncached =
      std::string(R"({"type":"allocate","mode":"nsga2",)") +
      R"("scenario":{"name":"custom","tasks":10,"window_s":30,"seed":12},)" +
      R"("nsga2":{"population":8,"generations":4}})";
  const util::JsonValue refused = call_json(client, uncached);
  EXPECT_EQ(code_of(refused), kCodeOverloaded);
  EXPECT_NE(refused.string_or("error", "").find("queue is full"),
            std::string::npos);

  // Once the queue is closed a hit is refused like a miss.
  server.halt_queue();
  const util::JsonValue draining = call_json(client, small_nsga2_request());
  EXPECT_EQ(code_of(draining), kCodeOverloaded);
  EXPECT_NE(draining.string_or("error", "").find("draining"),
            std::string::npos);

  EXPECT_EQ(code_of(util::parse_json(busy_a.receive())), kCodePartial);
  EXPECT_EQ(code_of(util::parse_json(busy_b.receive())), kCodePartial);
  server.stop();
}

TEST(ServeServer, CacheCountersCountEachAllocateOnce) {
  const std::string log_path =
      testing::TempDir() + "/eus_serve_cache_log_test.jsonl";
  std::remove(log_path.c_str());
  RequestLog log(log_path);
  ServerConfig config;
  config.queue_depth = 4;
  config.workers = 1;
  config.log = &log;
  Server server(config);
  server.start();

  // Two identical requests queue behind a busy worker.  Neither is
  // resident when it arrives, so both miss the inline probe; the first
  // computes the front and the second, when its turn comes, is answered
  // from the cache by the worker.
  ClientConnection busy;
  ClientConnection first;
  ClientConnection second;
  busy.connect(server.port());
  first.connect(server.port());
  second.connect(server.port());
  busy.send(slow_nsga2_request());
  wait_until([&] { return server.in_flight() >= 1; });
  ASSERT_GE(server.in_flight(), 1U);
  first.send(small_nsga2_request());
  wait_until([&] { return server.queue_size() >= 1; });
  second.send(small_nsga2_request());
  wait_until([&] { return server.queue_size() >= 2; });
  ASSERT_GE(server.queue_size(), 2U);
  EXPECT_EQ(code_of(util::parse_json(busy.receive())), kCodePartial);
  const util::JsonValue computed = util::parse_json(first.receive());
  const util::JsonValue waited = util::parse_json(second.receive());
  EXPECT_EQ(computed.string_or("cache", ""), "miss");
  EXPECT_EQ(waited.string_or("cache", ""), "hit");
  ASSERT_NE(waited.get("timing"), nullptr);
  EXPECT_GT(waited.get("timing")->number_or("queue_ms", 0.0), 0.0);

  // Then inline hits (the front again, a pareto-query on it) and a
  // heuristic computed once and answered once from the cache.
  ClientConnection client;
  client.connect(server.port());
  const std::string query =
      std::string(R"({"type":"allocate","mode":"pareto-query",)") +
      kSmallScenario +
      R"(,"nsga2":{"population":8,"generations":4,
                   "seeds":["min-energy","max-utility"]}})";
  const std::string heuristic =
      std::string(R"({"type":"allocate","mode":"heuristic:min-min",)") +
      kSmallScenario + "}";
  EXPECT_EQ(call_json(client, small_nsga2_request()).string_or("cache", ""),
            "hit");
  EXPECT_EQ(call_json(client, query).string_or("cache", ""), "hit");
  EXPECT_EQ(call_json(client, heuristic).string_or("cache", ""), "miss");
  EXPECT_EQ(call_json(client, heuristic).string_or("cache", ""), "hit");

  constexpr double kAllocates = 7.0;
  const util::JsonValue metrics = call_json(client, R"({"type":"metricsz"})");
  const util::JsonValue* counters = metrics.get("counters");
  ASSERT_NE(counters, nullptr);
  const double hits = counters->number_or("serve.cache.hits", -1.0);
  const double misses = counters->number_or("serve.cache.misses", -1.0);
  EXPECT_EQ(hits, 4.0);
  EXPECT_EQ(misses, 3.0);
  EXPECT_EQ(hits + misses, kAllocates);
  EXPECT_EQ(counters->number_or("serve.responses_ok", 0.0), kAllocates);
  server.stop();

  // The request log tells cache answers from computed ones.
  std::ifstream in(log_path);
  std::string line;
  double logged_hits = 0.0;
  double logged_misses = 0.0;
  while (std::getline(in, line)) {
    const util::JsonValue doc = util::parse_json(line);
    if (doc.string_or("type", "") != "serve_request") continue;
    const std::string cache = doc.string_or("cache", "");
    logged_hits += cache == "hit" ? 1.0 : 0.0;
    logged_misses += cache == "miss" ? 1.0 : 0.0;
  }
  EXPECT_EQ(logged_hits, hits);
  EXPECT_EQ(logged_misses, misses);
  std::remove(log_path.c_str());
}

TEST(ServeServer, MalformedJsonAnswers400AndKeepsTheConnection) {
  Server server;
  server.start();
  ClientConnection connection;
  connection.connect(server.port());

  const util::JsonValue error =
      util::parse_json(connection.call("this is not json"));
  EXPECT_EQ(code_of(error), kCodeBadRequest);
  EXPECT_NE(error.string_or("error", "").find("malformed"),
            std::string::npos);

  // Framing stayed intact: the same connection still serves healthz.
  const util::JsonValue health =
      call_json(connection, R"({"type":"healthz"})");
  EXPECT_EQ(code_of(health), kCodeOk);
  server.stop();
}

TEST(ServeServer, OversizedFrameAnswers400AndCloses) {
  ServerConfig config;
  config.max_frame_bytes = 256;
  Server server(config);
  server.start();
  ClientConnection connection;
  connection.connect(server.port());

  const util::JsonValue error = util::parse_json(
      connection.call(std::string(1024, ' ') + R"({"type":"healthz"})"));
  EXPECT_EQ(code_of(error), kCodeBadRequest);
  EXPECT_NE(error.string_or("error", "").find("exceeds"),
            std::string::npos);

  // A hostile length prefix cannot be resynchronized: the server closes.
  EXPECT_THROW(
      {
        connection.send(R"({"type":"healthz"})");
        (void)connection.receive();
      },
      ConnectError);
  server.stop();
}

TEST(ServeServer, ThirtyTwoConcurrentClients) {
  ServerConfig config;
  config.queue_depth = 64;
  config.workers = 4;
  Server server(config);
  server.start();

  constexpr std::size_t kClients = 32;
  constexpr std::size_t kRequestsEach = 3;
  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &ok, &failures] {
      try {
        ClientConnection connection;
        connection.connect(server.port());
        for (std::size_t r = 0; r < kRequestsEach; ++r) {
          const util::JsonValue doc = util::parse_json(connection.call(
              std::string(
                  R"({"type":"allocate","mode":"heuristic:min-min",)") +
              kSmallScenario + "}"));
          if (static_cast<int>(doc.number_or("code", -1.0)) == kCodeOk) {
            ok.fetch_add(1);
          } else {
            failures.fetch_add(1);
          }
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(ok.load(), kClients * kRequestsEach);
  EXPECT_EQ(failures.load(), 0U);
  server.stop();

  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("serve.responses_ok"),
            kClients * kRequestsEach);
  EXPECT_EQ(snap.counters.at("serve.connections"), kClients);
  EXPECT_GE(snap.histograms.at("serve.latency").count,
            kClients * kRequestsEach);
}

TEST(ServeServer, GracefulDrainAnswersEveryAcceptedRequest) {
  ServerConfig config;
  config.queue_depth = 4;
  config.workers = 1;
  Server server(config);
  server.start();

  const std::string slow =
      std::string(R"({"type":"allocate","mode":"nsga2",)") + kSmallScenario +
      R"(,"nsga2":{"population":8,"generations":5000000},
         "deadline_ms":2000})";
  ClientConnection in_flight_client;
  ClientConnection queued_client;
  in_flight_client.connect(server.port());
  queued_client.connect(server.port());

  // As in QueueOverflow…: send the second request only once the first is
  // in flight so one is executing and one is queued when the drain begins.
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

  // Drain while both requests are pending: stop() must not return until
  // they are answered, and both clients must see complete responses.
  std::thread stopper([&server] { server.stop(); });
  const util::JsonValue first =
      util::parse_json(in_flight_client.receive());
  const util::JsonValue second = util::parse_json(queued_client.receive());
  stopper.join();
  EXPECT_EQ(code_of(first), kCodePartial);
  EXPECT_EQ(code_of(second), kCodePartial);

  // After the drain the port is gone.
  ClientConnection late;
  EXPECT_THROW(late.connect(server.port()), ConnectError);
}

TEST(ServeServer, MetricszAndRequestLog) {
  const std::string log_path =
      testing::TempDir() + "/eus_serve_log_test.jsonl";
  std::remove(log_path.c_str());  // RequestLog appends: start clean
  RequestLog log(log_path);
  ServerConfig config;
  config.log = &log;
  Server server(config);
  server.start();

  ClientConnection connection;
  connection.connect(server.port());
  ASSERT_EQ(code_of(call_json(
                connection,
                std::string(
                    R"({"type":"allocate","mode":"heuristic:min-energy",)") +
                    kSmallScenario + "}")),
            kCodeOk);

  const util::JsonValue metrics =
      call_json(connection, R"({"type":"metricsz"})");
  EXPECT_EQ(code_of(metrics), kCodeOk);
  const util::JsonValue* counters = metrics.get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->number_or("serve.requests", 0.0), 1.0);
  ASSERT_NE(metrics.get("histograms"), nullptr);
  server.stop();

  // One config line + one line per allocate request, all valid JSON.
  EXPECT_GE(log.lines_written(), 2U);
  std::ifstream in(log_path);
  std::string line;
  std::size_t lines = 0;
  bool saw_request_line = false;
  while (std::getline(in, line)) {
    ++lines;
    const util::JsonValue doc = util::parse_json(line);
    if (doc.string_or("type", "") == "serve_request") {
      saw_request_line = true;
      EXPECT_EQ(doc.string_or("mode", ""), "heuristic:min-energy");
      EXPECT_EQ(static_cast<int>(doc.number_or("code", -1.0)), kCodeOk);
    }
  }
  EXPECT_EQ(lines, log.lines_written());
  EXPECT_TRUE(saw_request_line);
  std::remove(log_path.c_str());
}

TEST(ServeAdmin, LiveKnobsRetuneTheRunningServer) {
  ServerConfig config;
  config.queue_depth = 4;
  config.workers = 2;
  config.cache_entries = 8;
  Server server(config);
  server.start();
  ClientConnection connection;
  connection.connect(server.port());

  const util::JsonValue before = call_json(
      connection, R"({"type":"adminz","action":"get-config","id":"a1"})");
  ASSERT_EQ(code_of(before), kCodeOk);
  EXPECT_EQ(before.string_or("id", ""), "a1");
  EXPECT_EQ(before.number_or("queue_depth", 0.0), 4.0);
  EXPECT_EQ(before.number_or("workers", 0.0), 2.0);
  EXPECT_EQ(before.number_or("cache_entries", 0.0), 8.0);

  // Each set-* verb takes effect immediately and echoes the new value.
  const util::JsonValue deeper = call_json(
      connection, R"({"type":"adminz","action":"set-queue-depth",
                      "value":16})");
  ASSERT_EQ(code_of(deeper), kCodeOk);
  EXPECT_EQ(deeper.number_or("queue_depth", 0.0), 16.0);
  EXPECT_EQ(server.queue_capacity(), 16U);

  const util::JsonValue smaller_cache = call_json(
      connection, R"({"type":"adminz","action":"set-cache-entries",
                      "value":2})");
  ASSERT_EQ(code_of(smaller_cache), kCodeOk);
  EXPECT_EQ(smaller_cache.number_or("cache_entries", 0.0), 2.0);

  const util::JsonValue more_workers = call_json(
      connection, R"({"type":"adminz","action":"set-workers","value":4})");
  ASSERT_EQ(code_of(more_workers), kCodeOk);
  EXPECT_EQ(more_workers.number_or("workers", 0.0), 4.0);
  EXPECT_EQ(server.worker_target(), 4U);
  {
    const Stopwatch clock;
    while (server.worker_active() < 4 && clock.seconds() < 15.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(server.worker_active(), 4U);
  }

  // Shrinking retires the surplus workers between jobs without dropping
  // work.
  const util::JsonValue fewer_workers = call_json(
      connection, R"({"type":"adminz","action":"set-workers","value":1})");
  ASSERT_EQ(code_of(fewer_workers), kCodeOk);
  {
    const Stopwatch clock;
    while (server.worker_active() > 1 && clock.seconds() < 15.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(server.worker_active(), 1U);
  }

  // The shrunken pool still answers allocate requests.
  ASSERT_EQ(code_of(call_json(connection, small_nsga2_request())), kCodeOk);

  server.stop();
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_GE(snap.counters.at("serve.admin.actions"), 5U);
}

TEST(ServeAdmin, CatalogReloadServesAliasesLive) {
  SharedCatalog catalog;
  ServerConfig config;
  config.catalog = &catalog;
  Server server(config);
  server.start();
  ClientConnection connection;
  connection.connect(server.port());

  // Before the reload, the alias is unknown: 400, connection survives.
  const std::string aliased = std::string(
      R"({"type":"allocate","mode":"nsga2","scenario":{"name":"tiny"},)") +
      R"("nsga2":{"population":8,"generations":4,
                  "seeds":["min-energy","max-utility"]}})";
  EXPECT_EQ(code_of(call_json(connection, aliased)), kCodeBadRequest);

  const util::JsonValue reloaded = call_json(
      connection,
      R"({"type":"adminz","action":"catalog-reload","catalog":
          {"scenarios":[{"name":"tiny","base":"custom","tasks":10,
                         "window_s":30,"seed":11}]}})");
  ASSERT_EQ(code_of(reloaded), kCodeOk) << reloaded.string_or("error", "");
  EXPECT_EQ(reloaded.number_or("catalog_generation", 0.0), 1.0);
  EXPECT_EQ(reloaded.number_or("catalog_size", 0.0), 1.0);

  // The alias now resolves — and because it resolves to the same concrete
  // spec as kSmallScenario, it shares that request's cache entry: a
  // direct request then an aliased one is one miss + one hit.
  const util::JsonValue direct = call_json(connection, small_nsga2_request());
  ASSERT_EQ(code_of(direct), kCodeOk);
  EXPECT_EQ(direct.string_or("cache", ""), "miss");
  const util::JsonValue via_alias = call_json(connection, aliased);
  ASSERT_EQ(code_of(via_alias), kCodeOk) << via_alias.string_or("error", "");
  EXPECT_EQ(via_alias.string_or("cache", ""), "hit");
  ASSERT_EQ(via_alias.get("front")->array.size(),
            direct.get("front")->array.size());

  // An invalid replacement is rejected whole: the old catalog stays.
  const util::JsonValue rejected = call_json(
      connection,
      R"({"type":"adminz","action":"catalog-reload","catalog":
          {"scenarios":[{"name":"dataset1","base":"custom"}]}})");
  EXPECT_EQ(code_of(rejected), kCodeBadRequest);
  EXPECT_EQ(catalog.generation(), 1U);
  EXPECT_EQ(code_of(call_json(connection, aliased)), kCodeOk);

  // Swapping in an empty catalog drops the alias for *new* requests.
  const util::JsonValue cleared = call_json(
      connection, R"({"type":"adminz","action":"catalog-reload",
                      "catalog":{"scenarios":[]}})");
  ASSERT_EQ(code_of(cleared), kCodeOk);
  EXPECT_EQ(code_of(call_json(connection, aliased)), kCodeBadRequest);
  server.stop();
}

}  // namespace
}  // namespace eus::serve
