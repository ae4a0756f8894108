// Loopback tests for serve::Endpoint, the front door eus_served and
// eus_router share: a stub handler on an ephemeral port, driven through
// the real ClientConnection framing.  Covers the shared verbs (healthz,
// metricsz, get-config and catalog-reload, each with the handler's own
// fields), delegation of admin verbs and allocate requests to the handler,
// the metric namespace, framing errors, concurrent connections, and
// draining.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario_catalog.hpp"
#include "serve/client.hpp"
#include "serve/handlers.hpp"
#include "serve/net.hpp"
#include "util/json_value.hpp"

namespace eus::serve {
namespace {

/// Answers allocates with their mode label and payload size, and admin
/// verbs with the value they carry.
class StubHandler final : public EndpointHandler {
 public:
  void healthz_fields(JsonObject& out) const override {
    out.field("role", "stub-health");
  }
  void config_fields(JsonObject& out) const override {
    out.field("role", "stub-config");
  }
  std::string admin(const ServeRequest& request) override {
    admin_calls.fetch_add(1);
    return admin_applied(request, "value", request.admin.value);
  }
  void serve(const Reply& reply, ServeRequest request,
             const std::string& payload, const Stopwatch& total) override {
    served.fetch_add(1);
    JsonObject o = response_envelope(request.id, "ok", kCodeOk);
    o.field("mode", mode_label(request));
    o.field("payload_bytes", static_cast<std::uint64_t>(payload.size()));
    o.field("total_ms", total.milliseconds());
    reply.send(o.str());
  }

  std::atomic<int> served{0};
  std::atomic<int> admin_calls{0};
};

struct Harness {
  explicit Harness(std::size_t max_frame_bytes = kMaxFrameBytes)
      : endpoint(handler, {.service = "stub",
                           .metric_prefix = "stub",
                           .max_frame_bytes = max_frame_bytes,
                           .metrics = &metrics,
                           .catalog = &catalog}) {
    endpoint.start(0);
  }

  [[nodiscard]] std::uint64_t counter(const std::string& name) {
    return metrics.counter("stub." + name).value();
  }

  MetricsRegistry metrics;
  SharedCatalog catalog;
  StubHandler handler;
  Endpoint endpoint;
};

util::JsonValue call_json(ClientConnection& connection,
                          const std::string& request) {
  return util::parse_json(connection.call(request));
}

int code_of(const util::JsonValue& doc) {
  return static_cast<int>(doc.number_or("code", -1.0));
}

constexpr const char* kAllocate =
    R"({"type":"allocate","id":"a1","mode":"heuristic:min-min",)"
    R"("scenario":{"name":"dataset1"}})";

TEST(ServeEndpoint, SharedVerbsCarryTheHandlersFields) {
  Harness h;
  ClientConnection connection;
  connection.connect(h.endpoint.port());

  const util::JsonValue health =
      call_json(connection, R"({"type":"healthz","id":"h1"})");
  EXPECT_EQ(code_of(health), kCodeOk);
  EXPECT_EQ(health.string_or("id", ""), "h1");
  EXPECT_EQ(health.string_or("service", ""), "stub");
  EXPECT_GE(health.number_or("uptime_s", -1.0), 0.0);
  EXPECT_EQ(health.string_or("role", ""), "stub-health");
  EXPECT_EQ(health.number_or("catalog_generation", -1.0), 0.0);
  EXPECT_EQ(health.number_or("catalog_size", -1.0), 0.0);
  ASSERT_NE(health.get("draining"), nullptr);
  EXPECT_FALSE(health.get("draining")->boolean);

  const util::JsonValue config = call_json(
      connection, R"({"type":"adminz","action":"get-config"})");
  EXPECT_EQ(code_of(config), kCodeOk);
  EXPECT_EQ(config.string_or("action", ""), "get-config");
  EXPECT_EQ(config.number_or("port", 0.0), h.endpoint.port());
  EXPECT_EQ(config.string_or("role", ""), "stub-config");
  EXPECT_EQ(config.number_or("max_frame_bytes", 0.0),
            static_cast<double>(kMaxFrameBytes));
  EXPECT_EQ(config.number_or("catalog_generation", -1.0), 0.0);

  const util::JsonValue metrics =
      call_json(connection, R"({"type":"metricsz"})");
  EXPECT_EQ(code_of(metrics), kCodeOk);
  EXPECT_EQ(metrics.string_or("service", ""), "stub");
  const util::JsonValue* counters = metrics.get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->number_or("stub.connections", -1.0), 1.0);
  EXPECT_EQ(counters->number_or("stub.requests", -1.0), 3.0);
  EXPECT_EQ(counters->number_or("stub.admin.actions", -1.0), 1.0);
  EXPECT_EQ(h.handler.admin_calls.load(), 0);
  EXPECT_EQ(h.handler.served.load(), 0);
}

TEST(ServeEndpoint, CatalogReloadIsSharedAndOtherVerbsGoToTheHandler) {
  Harness h;
  ClientConnection connection;
  connection.connect(h.endpoint.port());

  const util::JsonValue reloaded = call_json(
      connection,
      R"({"type":"adminz","action":"catalog-reload","catalog":
          {"scenarios":[{"name":"tiny","base":"custom","tasks":10,
                         "window_s":30,"seed":11}]}})");
  ASSERT_EQ(code_of(reloaded), kCodeOk) << reloaded.string_or("error", "");
  EXPECT_EQ(reloaded.number_or("catalog_generation", 0.0), 1.0);
  EXPECT_EQ(reloaded.number_or("catalog_size", 0.0), 1.0);
  EXPECT_EQ(h.catalog.generation(), 1U);

  const util::JsonValue rejected = call_json(
      connection,
      R"({"type":"adminz","action":"catalog-reload","catalog":
          {"scenarios":[{"name":"dataset1","base":"custom"}]}})");
  EXPECT_EQ(code_of(rejected), kCodeBadRequest);
  EXPECT_EQ(h.catalog.generation(), 1U);

  const util::JsonValue applied = call_json(
      connection, R"({"type":"adminz","action":"set-workers","value":3})");
  EXPECT_EQ(code_of(applied), kCodeOk);
  EXPECT_EQ(applied.string_or("action", ""), "set-workers");
  EXPECT_EQ(applied.number_or("value", 0.0), 3.0);
  EXPECT_EQ(h.handler.admin_calls.load(), 1);
  EXPECT_EQ(h.counter("admin.actions"), 3U);
}

TEST(ServeEndpoint, AllocateReachesTheHandlerAsReceived) {
  Harness h;
  ClientConnection connection;
  connection.connect(h.endpoint.port());
  const util::JsonValue doc = call_json(connection, kAllocate);
  EXPECT_EQ(code_of(doc), kCodeOk);
  EXPECT_EQ(doc.string_or("id", ""), "a1");
  EXPECT_EQ(doc.string_or("mode", ""), "heuristic:min-min");
  EXPECT_EQ(doc.number_or("payload_bytes", 0.0),
            static_cast<double>(std::string(kAllocate).size()));
  EXPECT_GE(doc.number_or("total_ms", -1.0), 0.0);
  EXPECT_EQ(h.handler.served.load(), 1);
  EXPECT_EQ(h.counter("requests"), 1U);
}

TEST(ServeEndpoint, FramingErrorsAnswer400) {
  Harness h(256);
  ClientConnection connection;
  connection.connect(h.endpoint.port());

  // A document that does not parse keeps the connection.
  EXPECT_EQ(code_of(call_json(connection, "not json")), kCodeBadRequest);
  EXPECT_EQ(code_of(call_json(connection, R"({"type":"healthz"})")),
            kCodeOk);

  // A length prefix past max_frame_bytes closes it.
  const util::JsonValue error =
      call_json(connection, std::string(512, ' ') + R"({"type":"healthz"})");
  EXPECT_EQ(code_of(error), kCodeBadRequest);
  EXPECT_THROW(
      {
        connection.send(R"({"type":"healthz"})");
        (void)connection.receive();
      },
      ConnectError);
  EXPECT_EQ(h.counter("errors"), 2U);
  EXPECT_EQ(h.counter("requests"), 1U);
}

TEST(ServeEndpoint, ConcurrentConnectionsAreEachServed) {
  Harness h;
  constexpr int kClients = 8;
  constexpr int kRequestsEach = 10;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      ClientConnection connection;
      connection.connect(h.endpoint.port());
      for (int r = 0; r < kRequestsEach; ++r) {
        if (code_of(call_json(connection, kAllocate)) == kCodeOk) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kRequestsEach);
  EXPECT_EQ(h.handler.served.load(), kClients * kRequestsEach);
  EXPECT_EQ(h.counter("connections"), static_cast<std::uint64_t>(kClients));
}

TEST(ServeEndpoint, DrainReportsDrainingAndJoinUnblocksIdleReaders) {
  Harness h;
  ClientConnection connection;
  connection.connect(h.endpoint.port());
  ASSERT_EQ(code_of(call_json(connection, R"({"type":"healthz"})")), kCodeOk);

  h.endpoint.drain();
  EXPECT_TRUE(h.endpoint.draining());
  // A connection accepted before the drain is still answered.
  const util::JsonValue health =
      call_json(connection, R"({"type":"healthz"})");
  ASSERT_NE(health.get("draining"), nullptr);
  EXPECT_TRUE(health.get("draining")->boolean);

  // The reader is idle in recv(); joining shuts its read side down, so the
  // join returns although the client never hangs up.
  h.endpoint.join_connections();
  EXPECT_THROW(
      {
        connection.send(R"({"type":"healthz"})");
        (void)connection.receive();
      },
      ConnectError);
}

}  // namespace
}  // namespace eus::serve
