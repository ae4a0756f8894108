// Loopback integration tests for eus_router: in-process eus_served
// backends on ephemeral ports behind an in-process Router, driven through
// the real ClientConnection framing.  Covers inline healthz/metricsz,
// front bit-identity against a direct backend, consistent-hash cache
// affinity, capability-tag eligibility, failover with passive mark-down
// and probe-driven recovery, enable/disable and fleet-reload through the
// adminz wire, router-side alias resolution (aliased allocates and deltas
// forwarded with every member) and catalog reloads, framing errors, the
// request log and the statuses it and the counters read from relayed
// answers, drain semantics, and the routing-policy unit surface.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario_catalog.hpp"
#include "fleet/config.hpp"
#include "fleet/policy.hpp"
#include "fleet/router.hpp"
#include "serve/client.hpp"
#include "serve/handlers.hpp"
#include "serve/server.hpp"
#include "tenant/archive_store.hpp"
#include "util/json_value.hpp"
#include "util/stopwatch.hpp"

namespace eus::fleet {
namespace {

using serve::ClientConnection;
using serve::ConnectError;
using serve::Server;
using serve::ServerConfig;

util::JsonValue one_shot(std::uint16_t port, const std::string& request) {
  ClientConnection connection;
  connection.connect(port);
  return util::parse_json(connection.call(request));
}

int code_of(const util::JsonValue& doc) {
  return static_cast<int>(doc.number_or("code", -1.0));
}

// A small custom scenario keeps every NSGA-II request fast.
std::string nsga2_request(std::uint64_t seed) {
  return R"({"type":"allocate","mode":"nsga2","scenario":{"name":"custom",)"
         R"("tasks":10,"window_s":30,"seed":)" +
         std::to_string(seed) +
         R"(},"nsga2":{"population":8,"generations":4,)"
         R"("seeds":["min-energy"]}})";
}

constexpr const char* kHeuristicRequest =
    R"({"type":"allocate","mode":"heuristic:min-energy",)"
    R"("scenario":{"name":"custom","tasks":10,"window_s":30,"seed":5}})";

/// N in-process backends plus one router, wired and started.
class FleetHarness {
 public:
  explicit FleetHarness(
      std::size_t backends, RoutePolicy policy = RoutePolicy::kMinMin,
      const std::function<void(RouterConfig&)>& tune = {}) {
    FleetConfig fleet;
    for (std::size_t b = 0; b < backends; ++b) {
      auto server = std::make_unique<Server>(ServerConfig{});
      server->start();
      BackendConfig config;
      config.name = "b";
      config.name += std::to_string(b + 1);
      config.port = server->port();
      fleet.backends.push_back(config);
      servers.push_back(std::move(server));
    }
    RouterConfig config;
    config.fleet = fleet;
    config.policy = policy;
    config.health_period_s = 0.0;  // tests drive probe_now() directly
    config.catalog = &catalog;
    if (tune) tune(config);
    router = std::make_unique<Router>(std::move(config));
    router->start();
  }

  ~FleetHarness() {
    router->stop();
    for (const auto& server : servers) server->stop();
  }

  [[nodiscard]] std::uint64_t fleet_counter(const std::string& name) {
    return router->metrics().counter("fleet." + name).value();
  }

  [[nodiscard]] BackendInfo info(const std::string& name) {
    for (const BackendInfo& b : router->backend_info()) {
      if (b.name == name) return b;
    }
    ADD_FAILURE() << "no backend " << name;
    return {};
  }

  SharedCatalog catalog;
  std::vector<std::unique_ptr<Server>> servers;
  std::unique_ptr<Router> router;
};

TEST(FleetRouter, HealthzAndMetricszAnswerInline) {
  FleetHarness fleet(2);
  const util::JsonValue health =
      one_shot(fleet.router->port(), R"({"type":"healthz","id":"h1"})");
  EXPECT_EQ(code_of(health), serve::kCodeOk);
  EXPECT_EQ(health.string_or("id", ""), "h1");
  EXPECT_EQ(health.string_or("service", ""), "eus_router");
  EXPECT_EQ(health.number_or("backends", 0.0), 2.0);
  EXPECT_EQ(health.number_or("backends_up", 0.0), 2.0);

  const util::JsonValue metrics =
      one_shot(fleet.router->port(), R"({"type":"metricsz"})");
  EXPECT_EQ(code_of(metrics), serve::kCodeOk);
  const util::JsonValue* counters = metrics.get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->get("fleet.requests"), nullptr);
}

TEST(FleetRouter, FrontsAreBitIdenticalToDirectBackend) {
  FleetHarness fleet(1);
  const std::string request = nsga2_request(42);
  const util::JsonValue via_router =
      one_shot(fleet.router->port(), request);
  const util::JsonValue direct =
      one_shot(fleet.servers[0]->port(), request);
  ASSERT_EQ(code_of(via_router), serve::kCodeOk);
  ASSERT_EQ(code_of(direct), serve::kCodeOk);

  // The execution-determined sections must match bit for bit; only the
  // timing block may differ.
  const util::JsonValue* front_r = via_router.get("front");
  const util::JsonValue* front_d = direct.get("front");
  ASSERT_NE(front_r, nullptr);
  ASSERT_NE(front_d, nullptr);
  ASSERT_EQ(front_r->array.size(), front_d->array.size());
  for (std::size_t i = 0; i < front_r->array.size(); ++i) {
    EXPECT_DOUBLE_EQ(front_r->array[i].number_or("energy", -1.0),
                     front_d->array[i].number_or("energy", -2.0));
    EXPECT_DOUBLE_EQ(front_r->array[i].number_or("utility", -1.0),
                     front_d->array[i].number_or("utility", -2.0));
  }
  EXPECT_EQ(via_router.number_or("evaluations", -1.0),
            direct.number_or("evaluations", -2.0));
}

TEST(FleetRouter, RepeatedCacheableRequestsHitOneBackendsCache) {
  FleetHarness fleet(3);
  const std::string request = nsga2_request(7);
  const util::JsonValue first = one_shot(fleet.router->port(), request);
  EXPECT_EQ(first.string_or("cache", ""), "miss");
  for (int i = 0; i < 3; ++i) {
    const util::JsonValue repeat = one_shot(fleet.router->port(), request);
    // Ring affinity: the same fingerprint keeps landing on the backend
    // whose LRU already holds the front.
    EXPECT_EQ(repeat.string_or("cache", ""), "hit");
  }
  std::size_t busy_backends = 0;
  for (const BackendInfo& b : fleet.router->backend_info()) {
    if (b.requests > 0) ++busy_backends;
  }
  EXPECT_EQ(busy_backends, 1U);
}

TEST(FleetRouter, CapabilityTagsGateEligibility) {
  FleetHarness fleet(2);
  // Rebuild the fleet with capabilities: b1 heuristics only, b2 nsga2 +
  // pareto-query only.
  FleetConfig next;
  BackendConfig b1;
  b1.name = "b1";
  b1.port = fleet.servers[0]->port();
  b1.capabilities = {"mode:heuristic"};
  BackendConfig b2;
  b2.name = "b2";
  b2.port = fleet.servers[1]->port();
  b2.capabilities = {"mode:nsga2", "mode:pareto-query"};
  next.backends = {b1, b2};
  fleet.router->reload_fleet(next);

  EXPECT_EQ(code_of(one_shot(fleet.router->port(), nsga2_request(1))),
            serve::kCodeOk);
  EXPECT_EQ(code_of(one_shot(fleet.router->port(), kHeuristicRequest)),
            serve::kCodeOk);
  EXPECT_EQ(fleet.info("b1").requests, 1U);
  EXPECT_EQ(fleet.info("b2").requests, 1U);
}

TEST(FleetRouter, FailoverRetriesOnceAndMarksDown) {
  FleetHarness fleet(2);
  // Prime a pooled connection to every backend.
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_EQ(
        code_of(one_shot(fleet.router->port(), nsga2_request(100 + i))),
        serve::kCodeOk);
  }
  fleet.servers[0]->stop();  // kill b1 under the router

  // Every request still answers: calls planned onto b1 fail transport,
  // mark it down, and retry on b2.  Distinct seeds spread over the ring,
  // so within a handful of requests at least one is planned onto b1.
  for (std::uint64_t i = 0; i < 20; ++i) {
    const util::JsonValue doc =
        one_shot(fleet.router->port(), nsga2_request(200 + i));
    EXPECT_EQ(code_of(doc), serve::kCodeOk) << i;
    if (i >= 5 && fleet.fleet_counter("backend.down") > 0) break;
  }
  EXPECT_EQ(fleet.fleet_counter("backend.down"), 1U);
  EXPECT_FALSE(fleet.info("b1").up);
  EXPECT_GE(fleet.fleet_counter("retries"), 1U);
  EXPECT_EQ(fleet.fleet_counter("upstream_failed"), 0U);

  // Probes keep it down while dead, and bring it back once healthz
  // answers again.
  fleet.router->probe_now(/*force=*/true);
  EXPECT_FALSE(fleet.info("b1").up);
  ServerConfig revived;
  revived.port = fleet.info("b1").port;
  Server replacement(revived);
  replacement.start();
  fleet.router->probe_now(/*force=*/true);
  EXPECT_TRUE(fleet.info("b1").up);
  EXPECT_EQ(fleet.fleet_counter("backend.up"), 1U);
  replacement.stop();
  fleet.router->probe_now(/*force=*/true);  // leave it marked down again
}

TEST(FleetRouter, SubMillisecondProbeTimeoutStillTimesOut) {
  // A backend that takes connections (the kernel completes them in the
  // listen backlog) and never answers.
  const int mute = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(mute, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(mute, 4), 0);
  ASSERT_EQ(::getsockname(mute, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  RouterConfig config;
  BackendConfig backend;
  backend.name = "mute";
  backend.port = ntohs(addr.sin_port);
  config.fleet.backends.push_back(backend);
  config.health_period_s = 0.0;
  config.probe_timeout_ms = 0.5;  // must not round down to "no timeout"
  Router router(std::move(config));
  router.start();

  std::future<void> probe = std::async(std::launch::async,
                                       [&] { router.probe_now(true); });
  const bool returned = probe.wait_for(std::chrono::seconds(1)) ==
                        std::future_status::ready;
  // Watchdog: closing the listener resets the probe's connection, so a
  // probe that waits without a timeout fails this test instead of hanging.
  ::close(mute);
  probe.get();
  EXPECT_TRUE(returned) << "probe_now(true) took longer than 1 s";
  ASSERT_EQ(router.backend_info().size(), 1U);
  EXPECT_FALSE(router.backend_info().front().up);
  router.stop();
}

TEST(FleetRouter, NoRoutableBackendIs503) {
  FleetHarness fleet(1);
  ASSERT_TRUE(fleet.router->set_backend_enabled("b1", false));
  const util::JsonValue doc =
      one_shot(fleet.router->port(), nsga2_request(3));
  EXPECT_EQ(code_of(doc), serve::kCodeOverloaded);
  EXPECT_EQ(fleet.fleet_counter("no_backend"), 1U);
  ASSERT_TRUE(fleet.router->set_backend_enabled("b1", true));
  EXPECT_EQ(code_of(one_shot(fleet.router->port(), nsga2_request(3))),
            serve::kCodeOk);
}

TEST(FleetRouter, AdminEnableDisableAndReloadOverTheWire) {
  FleetHarness fleet(2);
  const util::JsonValue disabled = one_shot(
      fleet.router->port(),
      R"({"type":"adminz","action":"disable-backend","name":"b2"})");
  EXPECT_EQ(code_of(disabled), serve::kCodeOk);
  EXPECT_FALSE(fleet.info("b2").enabled);

  // All traffic lands on b1 while b2 is out of the rotation.
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(
        code_of(one_shot(fleet.router->port(), nsga2_request(300 + i))),
        serve::kCodeOk);
  }
  EXPECT_EQ(fleet.info("b2").requests, 0U);
  EXPECT_EQ(fleet.info("b1").requests, 3U);

  const util::JsonValue enabled = one_shot(
      fleet.router->port(),
      R"({"type":"adminz","action":"enable-backend","name":"b2"})");
  EXPECT_EQ(code_of(enabled), serve::kCodeOk);
  EXPECT_TRUE(fleet.info("b2").enabled);

  const util::JsonValue unknown = one_shot(
      fleet.router->port(),
      R"({"type":"adminz","action":"enable-backend","name":"nope"})");
  EXPECT_EQ(code_of(unknown), serve::kCodeBadRequest);

  // fleet-reload over the wire: drop to one backend.
  const std::string reload =
      R"({"type":"adminz","action":"fleet-reload","fleet":{"backends":[)"
      R"({"name":"b1","port":)" +
      std::to_string(fleet.servers[0]->port()) + R"(}]}})";
  const util::JsonValue reloaded = one_shot(fleet.router->port(), reload);
  EXPECT_EQ(code_of(reloaded), serve::kCodeOk);
  EXPECT_EQ(fleet.router->backend_info().size(), 1U);
  EXPECT_EQ(fleet.fleet_counter("reloads"), 1U);

  // A rejected fleet leaves the current one untouched.
  const util::JsonValue rejected = one_shot(
      fleet.router->port(),
      R"({"type":"adminz","action":"fleet-reload","fleet":{"backends":[]}})");
  EXPECT_EQ(code_of(rejected), serve::kCodeBadRequest);
  EXPECT_EQ(fleet.router->backend_info().size(), 1U);
}

TEST(FleetRouter, ReloadPreservesSurvivorState) {
  FleetHarness fleet(2);
  ASSERT_EQ(code_of(one_shot(fleet.router->port(), nsga2_request(9))),
            serve::kCodeOk);
  fleet.servers[1]->stop();
  fleet.router->probe_now(/*force=*/true);
  ASSERT_FALSE(fleet.info("b2").up);

  FleetConfig next;
  BackendConfig b1;
  b1.name = "b1";
  b1.port = fleet.servers[0]->port();
  BackendConfig b2;
  b2.name = "b2";
  b2.port = fleet.servers[1]->port();
  next.backends = {b1, b2};
  fleet.router->reload_fleet(next);
  // The down verdict and the per-backend counters survive the reload.
  EXPECT_FALSE(fleet.info("b2").up);
  EXPECT_GE(fleet.info("b1").requests + fleet.info("b2").requests, 1U);
}

TEST(FleetRouter, ServeOnlyAdminVerbsAreRejected) {
  FleetHarness fleet(1);
  const util::JsonValue doc = one_shot(
      fleet.router->port(),
      R"({"type":"adminz","action":"set-workers","value":4})");
  EXPECT_EQ(code_of(doc), serve::kCodeBadRequest);
}

TEST(FleetRouter, AliasesResolveAtTheRouterNotTheBackend) {
  FleetHarness fleet(1);
  auto next = std::make_shared<const ScenarioCatalog>(
      std::vector<ScenarioRecipe>{{"quick", "custom", 77, 10, 30.0},
                                  {"quick2", "custom", 77, 10, 30.0}});
  fleet.catalog.swap(next);

  const std::string request =
      R"({"type":"allocate","mode":"nsga2","scenario":{"name":"quick"},)"
      R"("nsga2":{"population":8,"generations":4,"seeds":["min-energy"]}})";
  // The backend has no catalog: direct alias requests fail, routed ones
  // resolve at the router and forward concrete.
  EXPECT_EQ(code_of(one_shot(fleet.servers[0]->port(), request)),
            serve::kCodeBadRequest);
  const util::JsonValue doc = one_shot(fleet.router->port(), request);
  EXPECT_EQ(code_of(doc), serve::kCodeOk);
  EXPECT_EQ(doc.string_or("scenario", ""), "custom");

  // Two aliases for one recipe share a fingerprint, so the second is a
  // cache hit on the same backend.
  const std::string request2 =
      R"({"type":"allocate","mode":"nsga2","scenario":{"name":"quick2"},)"
      R"("nsga2":{"population":8,"generations":4,"seeds":["min-energy"]}})";
  const util::JsonValue doc2 = one_shot(fleet.router->port(), request2);
  EXPECT_EQ(code_of(doc2), serve::kCodeOk);
  EXPECT_EQ(doc2.string_or("cache", ""), "hit");
}

TEST(FleetRouter, DrainRejectsNewAllocatesOnLiveConnections) {
  FleetHarness fleet(1);
  // After halt_acceptor the acceptor takes no new connections, so the
  // drain answer is observable only on one accepted beforehand.
  ClientConnection connection;
  connection.connect(fleet.router->port());
  // A round-trip first: guarantees the router accepted the connection
  // before the acceptor is interrupted.
  ASSERT_EQ(code_of(util::parse_json(
                connection.call(R"({"type":"healthz"})"))),
            serve::kCodeOk);
  fleet.router->halt_acceptor();
  const util::JsonValue doc =
      util::parse_json(connection.call(nsga2_request(4)));
  EXPECT_EQ(code_of(doc), serve::kCodeOverloaded);
  const util::JsonValue health =
      util::parse_json(connection.call(R"({"type":"healthz"})"));
  EXPECT_EQ(code_of(health), serve::kCodeOk);
  const util::JsonValue* draining = health.get("draining");
  ASSERT_NE(draining, nullptr);
  EXPECT_TRUE(draining->boolean);
}

TEST(FleetRouter, StopAnswersEveryInFlightProxiedRequest) {
  FleetHarness fleet(1);
  // A huge generation budget cut by the deadline keeps the proxied call
  // running on the backend for about two seconds.
  const std::string slow =
      R"({"type":"allocate","mode":"nsga2","scenario":{"name":"custom",)"
      R"("tasks":10,"window_s":30,"seed":11},)"
      R"("nsga2":{"population":8,"generations":5000000},"deadline_ms":2000})";
  ClientConnection client;
  client.connect(fleet.router->port());
  client.send(slow);
  const Stopwatch clock;
  while (fleet.servers[0]->in_flight() < 1 && clock.seconds() < 15.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(fleet.servers[0]->in_flight(), 1U);

  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    fleet.router->stop();
    stopped = true;
  });
  const util::JsonValue answer = util::parse_json(client.receive());
  stopper.join();

  // The call in flight when stop() began is answered whole, stop() returns,
  // and the router takes no new connection.
  EXPECT_EQ(code_of(answer), serve::kCodePartial);
  EXPECT_TRUE(stopped);
  ClientConnection late;
  EXPECT_THROW(late.connect(fleet.router->port()), ConnectError);
}

TEST(FleetRouter, MalformedJsonAnswers400AndKeepsTheConnection) {
  FleetHarness fleet(1);
  ClientConnection connection;
  connection.connect(fleet.router->port());

  const util::JsonValue error =
      util::parse_json(connection.call("this is not json"));
  EXPECT_EQ(code_of(error), serve::kCodeBadRequest);
  EXPECT_NE(error.string_or("error", "").find("malformed"),
            std::string::npos);
  EXPECT_EQ(fleet.fleet_counter("errors"), 1U);

  // Framing stayed intact: the same connection still routes an allocate.
  const util::JsonValue routed =
      util::parse_json(connection.call(kHeuristicRequest));
  EXPECT_EQ(code_of(routed), serve::kCodeOk);
}

TEST(FleetRouter, OversizedFrameAnswers400AndCloses) {
  FleetHarness fleet(1, RoutePolicy::kMinMin, [](RouterConfig& config) {
    config.max_frame_bytes = 256;
  });
  ClientConnection connection;
  connection.connect(fleet.router->port());

  const util::JsonValue error = util::parse_json(
      connection.call(std::string(1024, ' ') + R"({"type":"healthz"})"));
  EXPECT_EQ(code_of(error), serve::kCodeBadRequest);
  EXPECT_NE(error.string_or("error", "").find("exceeds"),
            std::string::npos);

  // A hostile length prefix cannot be resynchronized: the router closes.
  EXPECT_THROW(
      {
        connection.send(R"({"type":"healthz"})");
        (void)connection.receive();
      },
      ConnectError);
  EXPECT_EQ(fleet.info("b1").requests, 0U);
}

TEST(FleetRouter, CatalogReloadOverTheWire) {
  FleetHarness fleet(1);
  ClientConnection connection;
  connection.connect(fleet.router->port());
  const std::string aliased =
      R"({"type":"allocate","mode":"nsga2","scenario":{"name":"tiny"},)"
      R"("nsga2":{"population":8,"generations":4,"seeds":["min-energy"]}})";
  EXPECT_EQ(code_of(util::parse_json(connection.call(aliased))),
            serve::kCodeBadRequest);

  const util::JsonValue reloaded = util::parse_json(connection.call(
      R"({"type":"adminz","action":"catalog-reload","catalog":
          {"scenarios":[{"name":"tiny","base":"custom","tasks":10,
                         "window_s":30,"seed":11}]}})"));
  ASSERT_EQ(code_of(reloaded), serve::kCodeOk)
      << reloaded.string_or("error", "");
  EXPECT_EQ(reloaded.string_or("action", ""), "catalog-reload");
  EXPECT_EQ(reloaded.number_or("catalog_generation", 0.0), 1.0);
  EXPECT_EQ(reloaded.number_or("catalog_size", 0.0), 1.0);

  const util::JsonValue resolved = util::parse_json(connection.call(aliased));
  ASSERT_EQ(code_of(resolved), serve::kCodeOk)
      << resolved.string_or("error", "");
  EXPECT_EQ(resolved.string_or("scenario", ""), "custom");
  EXPECT_EQ(fleet.info("b1").requests, 1U);

  // An invalid replacement is rejected whole: the old catalog stays.
  const util::JsonValue rejected = util::parse_json(connection.call(
      R"({"type":"adminz","action":"catalog-reload","catalog":
          {"scenarios":[{"name":"dataset1","base":"custom"}]}})"));
  EXPECT_EQ(code_of(rejected), serve::kCodeBadRequest);
  EXPECT_NE(rejected.string_or("error", "").find("catalog rejected"),
            std::string::npos);
  EXPECT_EQ(fleet.catalog.generation(), 1U);
  const util::JsonValue health =
      util::parse_json(connection.call(R"({"type":"healthz"})"));
  EXPECT_EQ(health.number_or("catalog_generation", 0.0), 1.0);
  EXPECT_EQ(code_of(util::parse_json(connection.call(aliased))),
            serve::kCodeOk);
}

TEST(FleetRouter, AliasedDeltaResolvesAtTheRouter) {
  // One backend with a warm-start archive and no catalog, behind a router
  // whose catalog names the tenant's scenario.
  ServerConfig backend_config;
  backend_config.archive = tenant::ArchiveConfig{};
  Server backend(backend_config);
  backend.start();
  SharedCatalog catalog;
  catalog.swap(std::make_shared<const ScenarioCatalog>(
      std::vector<ScenarioRecipe>{{"nightly", "custom", 5, 24, 60.0}}));
  RouterConfig config;
  BackendConfig b1;
  b1.name = "b1";
  b1.port = backend.port();
  config.fleet.backends.push_back(b1);
  config.health_period_s = 0.0;
  config.catalog = &catalog;
  Router router(std::move(config));
  router.start();

  const std::string budget =
      R"("nsga2":{"population":16,"generations":16,"seeds":["min-energy"]})";
  const util::JsonValue prime = one_shot(
      router.port(),
      R"({"type":"allocate","mode":"nsga2","tenant":"acme","scenario":)"
      R"({"name":"custom","tasks":24,"window_s":60,"seed":5},)" +
          budget + "}");
  ASSERT_EQ(code_of(prime), serve::kCodeOk) << prime.string_or("error", "");

  const std::string delta =
      R"({"type":"delta","tenant":"acme","base":{"name":"nightly"},)"
      R"("mutations":[{"op":"add-tasks","count":4}],)" +
      budget + "}";
  // The backend cannot resolve the alias; the router can, and the delta
  // finds the archive the concrete allocate filled.
  EXPECT_EQ(code_of(one_shot(backend.port(), delta)), serve::kCodeBadRequest);
  const util::JsonValue warm = one_shot(router.port(), delta);
  ASSERT_EQ(code_of(warm), serve::kCodeOk) << warm.string_or("error", "");
  ASSERT_NE(warm.get("warm"), nullptr);
  EXPECT_TRUE(warm.get("warm")->boolean);

  router.stop();
  backend.stop();
}

TEST(FleetRouter, AliasedRequestKeepsEveryMember) {
  FleetHarness fleet(1);
  fleet.catalog.swap(std::make_shared<const ScenarioCatalog>(
      std::vector<ScenarioRecipe>{{"quick", "custom", 77, 10, 30.0}}));
  const auto request = [](const std::string& scenario) {
    return R"({"type":"allocate","id":"a\"b\\c\né","tenant":"acme",)"
           R"("mode":"pareto-query","scenario":)" +
           scenario +
           R"(,"nsga2":{"population":8,"generations":4,)"
           R"("seeds":["min-energy"]},"query":{"max_energy":1e12},)"
           R"("deadline_ms":60000})";
  };
  const util::JsonValue concrete = one_shot(
      fleet.servers[0]->port(),
      request(R"({"name":"custom","tasks":10,"window_s":30,"seed":77})"));
  ASSERT_EQ(code_of(concrete), serve::kCodeOk)
      << concrete.string_or("error", "");
  const util::JsonValue aliased =
      one_shot(fleet.router->port(), request(R"({"name":"quick"})"));
  ASSERT_EQ(code_of(aliased), serve::kCodeOk)
      << aliased.string_or("error", "");

  EXPECT_EQ(aliased.string_or("id", ""), "a\"b\\c\n\xc3\xa9");
  EXPECT_EQ(aliased.string_or("tenant", ""), "acme");
  // The forwarded document keeps the tenant and the budget, so it keys
  // the concrete request's cache entry.
  EXPECT_EQ(aliased.string_or("cache", ""), "hit");
  const util::JsonValue* front_a = aliased.get("front");
  const util::JsonValue* front_c = concrete.get("front");
  ASSERT_NE(front_a, nullptr);
  ASSERT_NE(front_c, nullptr);
  ASSERT_EQ(front_a->array.size(), front_c->array.size());
  for (std::size_t i = 0; i < front_a->array.size(); ++i) {
    EXPECT_EQ(front_a->array[i].number_or("energy", -1.0),
              front_c->array[i].number_or("energy", -2.0));
    EXPECT_EQ(front_a->array[i].number_or("utility", -1.0),
              front_c->array[i].number_or("utility", -2.0));
  }
  const util::JsonValue* picked_a = aliased.get("objectives");
  const util::JsonValue* picked_c = concrete.get("objectives");
  ASSERT_NE(picked_a, nullptr);
  ASSERT_NE(picked_c, nullptr);
  EXPECT_EQ(picked_a->number_or("energy", -1.0),
            picked_c->number_or("energy", -2.0));
}

TEST(FleetRouter, RequestLogRecordsEachRoutedRequest) {
  const std::string log_path =
      testing::TempDir() + "/eus_fleet_request_log_test.jsonl";
  std::remove(log_path.c_str());
  {
    serve::RequestLog log(log_path);
    FleetHarness fleet(2, RoutePolicy::kMinMin,
                       [&](RouterConfig& config) { config.log = &log; });
    ASSERT_EQ(code_of(one_shot(fleet.router->port(), nsga2_request(61))),
              serve::kCodeOk);
    ASSERT_EQ(code_of(one_shot(fleet.router->port(), kHeuristicRequest)),
              serve::kCodeOk);
    // healthz is answered inline and never logged as a routed request.
    ASSERT_EQ(code_of(one_shot(fleet.router->port(), R"({"type":"healthz"})")),
              serve::kCodeOk);
  }

  std::ifstream in(log_path);
  std::vector<util::JsonValue> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(util::parse_json(line));
  }
  ASSERT_EQ(lines.size(), 3U);
  EXPECT_EQ(lines[0].string_or("type", ""), "config");
  EXPECT_EQ(lines[0].string_or("service", ""), "eus_router");
  const char* modes[] = {"nsga2", "heuristic:min-energy"};
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const util::JsonValue& record = lines[i];
    EXPECT_EQ(record.string_or("type", ""), "fleet_request");
    EXPECT_EQ(record.string_or("mode", ""), modes[i - 1]);
    EXPECT_EQ(record.string_or("kind", ""), "allocate");
    EXPECT_EQ(record.string_or("scenario", ""), "custom");
    EXPECT_EQ(code_of(record), serve::kCodeOk);
    const std::string backend = record.string_or("backend", "");
    EXPECT_TRUE(backend == "b1" || backend == "b2") << backend;
    const util::JsonValue* retried = record.get("retried");
    ASSERT_NE(retried, nullptr);
    EXPECT_EQ(retried->kind, util::JsonValue::Kind::kBool);
    EXPECT_FALSE(retried->boolean);
    EXPECT_GE(record.number_or("total_ms", -1.0), 0.0);
    EXPECT_GE(record.number_or("t_s", -1.0), 0.0);
  }
  std::remove(log_path.c_str());
}

TEST(FleetRouter, RoutedStatusesAreCountedAndLogged) {
  const std::string log_path =
      testing::TempDir() + "/eus_fleet_routed_status_test.jsonl";
  std::remove(log_path.c_str());
  {
    serve::RequestLog log(log_path);
    FleetHarness fleet(2, RoutePolicy::kMinMin,
                       [&](RouterConfig& config) { config.log = &log; });
    const std::uint64_t ok_before = fleet.fleet_counter("responses_ok");
    const std::uint64_t errors_before = fleet.fleet_counter("errors");

    // A cold allocate, the same request again (a front-cache hit), and a
    // query on that front which no point satisfies: the router relays all
    // three and reads each status from the backend's answer.
    const std::string request = nsga2_request(67);
    EXPECT_EQ(code_of(one_shot(fleet.router->port(), request)),
              serve::kCodeOk);
    const util::JsonValue hit = one_shot(fleet.router->port(), request);
    EXPECT_EQ(code_of(hit), serve::kCodeOk);
    EXPECT_EQ(hit.string_or("cache", ""), "hit");
    const std::string query =
        R"({"type":"allocate","mode":"pareto-query","scenario":)"
        R"({"name":"custom","tasks":10,"window_s":30,"seed":67},)"
        R"("nsga2":{"population":8,"generations":4,)"
        R"("seeds":["min-energy"]},"query":{"max_energy":1}})";
    EXPECT_EQ(code_of(one_shot(fleet.router->port(), query)),
              serve::kCodeUnsatisfiable);

    EXPECT_EQ(fleet.fleet_counter("responses_ok") - ok_before, 2U);
    EXPECT_EQ(fleet.fleet_counter("errors") - errors_before, 1U);
  }

  std::ifstream in(log_path);
  std::vector<util::JsonValue> routed;
  for (std::string line; std::getline(in, line);) {
    util::JsonValue record = util::parse_json(line);
    if (record.string_or("type", "") == "fleet_request") {
      routed.push_back(std::move(record));
    }
  }
  ASSERT_EQ(routed.size(), 3U);
  const int codes[] = {serve::kCodeOk, serve::kCodeOk,
                       serve::kCodeUnsatisfiable};
  for (std::size_t i = 0; i < routed.size(); ++i) {
    EXPECT_EQ(code_of(routed[i]), codes[i]) << i;
    const std::string backend = routed[i].string_or("backend", "");
    EXPECT_TRUE(backend == "b1" || backend == "b2") << i << ": " << backend;
  }
  EXPECT_EQ(routed[2].string_or("mode", ""), "pareto-query");
  std::remove(log_path.c_str());
}

TEST(FleetPolicy, RoundRobinRotates) {
  const std::vector<Candidate> candidates = {
      {"a", 1.0, 1.0, 0}, {"b", 1.0, 1.0, 0}, {"c", 1.0, 1.0, 0}};
  EXPECT_EQ(choose_backend(RoutePolicy::kRoundRobin, candidates, 1.0, 0),
            0U);
  EXPECT_EQ(choose_backend(RoutePolicy::kRoundRobin, candidates, 1.0, 1),
            1U);
  EXPECT_EQ(choose_backend(RoutePolicy::kRoundRobin, candidates, 1.0, 5),
            2U);
}

TEST(FleetPolicy, MinMinPrefersFastAndIdle) {
  // b finishes the request soonest: same queue, double speed.
  EXPECT_EQ(choose_backend(RoutePolicy::kMinMin,
                           {{"a", 1.0, 1.0, 0}, {"b", 2.0, 1.0, 0}}, 1.0, 0),
            1U);
  // A deep queue outweighs raw speed.
  EXPECT_EQ(choose_backend(RoutePolicy::kMinMin,
                           {{"a", 1.0, 1.0, 0}, {"b", 2.0, 1.0, 7}}, 1.0, 0),
            0U);
  // Exact tie resolves to the lexicographically smaller name.
  EXPECT_EQ(choose_backend(RoutePolicy::kMinMin,
                           {{"z", 1.0, 1.0, 0}, {"a", 1.0, 1.0, 0}}, 1.0, 0),
            1U);
}

TEST(FleetPolicy, MaxUpePrefersUtilityPerWatt) {
  // a: 1.0 speed / 1.0 W = 1.0; b: 2.0 speed / 4.0 W = 0.5.
  EXPECT_EQ(choose_backend(RoutePolicy::kMaxUpe,
                           {{"a", 1.0, 1.0, 0}, {"b", 2.0, 4.0, 0}}, 1.0, 0),
            0U);
  // The queue discounts the utility rate.
  EXPECT_EQ(choose_backend(RoutePolicy::kMaxUpe,
                           {{"a", 1.0, 1.0, 3}, {"b", 2.0, 4.0, 0}}, 1.0, 0),
            1U);
}

TEST(FleetPolicy, CostUnitsScaleWithNsga2Budget) {
  serve::ServeRequest heuristic;
  heuristic.mode = serve::ModeKind::kHeuristic;
  EXPECT_DOUBLE_EQ(request_cost_units(heuristic), 1.0);

  serve::ServeRequest small;
  small.mode = serve::ModeKind::kNsga2;
  small.nsga2.population = 8;
  small.nsga2.generations = 4;
  EXPECT_DOUBLE_EQ(request_cost_units(small), 1.0);  // floored at 1

  serve::ServeRequest big;
  big.mode = serve::ModeKind::kNsga2;
  big.nsga2.population = 64;
  big.nsga2.generations = 64;
  EXPECT_DOUBLE_EQ(request_cost_units(big), 4.0);
}

}  // namespace
}  // namespace eus::fleet
