// End-to-end delta / warm-start serving tests over loopback: the
// allocate-then-delta warm round trip, the 404 unknown-base path, protocol
// rejections, the archive admin verbs (a wrong-typed flush name flushes
// nothing), and the checkpoint lifecycle — SIGTERM drain writes the
// archive, a restarted server reloads it and answers the next delta warm,
// a corrupt checkpoint cold-starts, and a halt before boot leaves an
// existing checkpoint untouched.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>

#include "serve/client.hpp"
#include "serve/handlers.hpp"
#include "serve/runtime.hpp"
#include "serve/server.hpp"
#include "util/json_value.hpp"

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

double counter_of(const util::JsonValue& metricsz, const std::string& name) {
  const util::JsonValue* counters = metricsz.get("counters");
  return counters == nullptr ? 0.0 : counters->number_or(name, 0.0);
}

constexpr const char* kBase =
    R"({"name":"custom","tasks":24,"window_s":60,"seed":5})";
constexpr const char* kBudget =
    R"({"population":16,"generations":16,"seeds":["min-energy"]})";

/// A Server config wired to `runtime` as eus_served wires it (run log,
/// catalog, phase), with the warm-start archive at the store's default
/// bounds, as eus_served keeps it by default.
ServerConfig archived(ServeRuntime& runtime) {
  ServerConfig config;
  config.log = runtime.log();
  config.catalog = &runtime.catalog();
  config.state = &runtime.state();
  config.archive = tenant::ArchiveConfig{};
  return config;
}

std::string allocate_request(const std::string& tenant) {
  return std::string(R"({"type":"allocate","mode":"nsga2",)") +
         (tenant.empty() ? "" : R"("tenant":")" + tenant + R"(",)") +
         R"("scenario":)" + kBase + R"(,"nsga2":)" + kBudget + "}";
}

std::string delta_request(const std::string& tenant,
                          const std::string& mutations,
                          const std::string& extra = "") {
  return std::string(R"({"type":"delta","tenant":")") + tenant +
         R"(","base":)" + kBase + R"(,"mutations":)" + mutations + extra +
         R"(,"nsga2":)" + kBudget + "}";
}

TEST(ServeDelta, WarmDeltaRoundTripOverLoopback) {
  RuntimeConfig config;
  ServeRuntime runtime(config);
  Server server(archived(runtime));
  runtime.boot(server);
  const std::uint16_t port = server.port();

  // Prime: the tenant's first allocate runs cold and archives its front.
  const util::JsonValue prime = one_shot(port, allocate_request("acme"));
  ASSERT_EQ(code_of(prime), kCodeOk);
  ASSERT_NE(prime.get("warm"), nullptr);
  EXPECT_FALSE(prime.get("warm")->boolean);
  EXPECT_EQ(prime.string_or("tenant", ""), "acme");

  // Delta: mutate the archived base; the response is warm and carries the
  // lineage fingerprints.
  const util::JsonValue delta = one_shot(
      port, delta_request("acme",
                          R"([{"op":"add-tasks","count":4},)"
                          R"({"op":"drop-machine","machine":1}])"));
  ASSERT_EQ(code_of(delta), kCodeOk) << delta.string_or("error", "");
  EXPECT_EQ(delta.string_or("mode", ""), "nsga2");
  ASSERT_NE(delta.get("warm"), nullptr);
  EXPECT_TRUE(delta.get("warm")->boolean);
  const std::string base_fp = delta.string_or("base_fingerprint", "");
  const std::string new_fp = delta.string_or("fingerprint", "");
  EXPECT_FALSE(base_fp.empty());
  EXPECT_FALSE(new_fp.empty());
  EXPECT_NE(base_fp, new_fp);
  EXPECT_NE(new_fp.find("drop=1"), std::string::npos);
  ASSERT_NE(delta.get("front"), nullptr);
  EXPECT_FALSE(delta.get("front")->array.empty());

  // The same base can be mutated again — the archive entry survives.
  const util::JsonValue again = one_shot(
      port,
      delta_request("acme", R"([{"op":"set-window","window_s":45}])"));
  ASSERT_EQ(code_of(again), kCodeOk);
  EXPECT_TRUE(again.get("warm")->boolean);

  const util::JsonValue m = one_shot(port, R"({"type":"metricsz"})");
  EXPECT_GE(counter_of(m, "serve.delta.warm"), 2.0);
  EXPECT_GE(counter_of(m, "archive.warm_hits"), 2.0);
  EXPECT_GE(counter_of(m, "nsga2.warm_seeds"), 1.0);

  runtime.halt();
}

TEST(ServeDelta, UnknownBaseAnswers404WithoutColdFallback) {
  RuntimeConfig config;
  ServeRuntime runtime(config);
  Server server(archived(runtime));
  runtime.boot(server);
  const std::uint16_t port = server.port();

  const util::JsonValue r = one_shot(
      port, delta_request("ghost", R"([{"op":"add-tasks","count":2}])",
                          R"(,"cold_fallback":false)"));
  EXPECT_EQ(code_of(r), kCodeUnsatisfiable);
  EXPECT_NE(r.string_or("error", "").find("unknown base fingerprint"),
            std::string::npos);

  const util::JsonValue m = one_shot(port, R"({"type":"metricsz"})");
  EXPECT_GE(counter_of(m, "serve.delta.unknown_base"), 1.0);

  runtime.halt();
}

TEST(ServeDelta, UnknownBaseFallsBackToColdRunByDefault) {
  RuntimeConfig config;
  ServeRuntime runtime(config);
  Server server(archived(runtime));
  runtime.boot(server);
  const std::uint16_t port = server.port();

  const util::JsonValue r = one_shot(
      port, delta_request("newcomer", R"([{"op":"remove-tasks","count":4}])"));
  ASSERT_EQ(code_of(r), kCodeOk) << r.string_or("error", "");
  ASSERT_NE(r.get("warm"), nullptr);
  EXPECT_FALSE(r.get("warm")->boolean);
  ASSERT_NE(r.get("front"), nullptr);
  EXPECT_FALSE(r.get("front")->array.empty());

  const util::JsonValue m = one_shot(port, R"({"type":"metricsz"})");
  EXPECT_GE(counter_of(m, "serve.delta.cold"), 1.0);

  runtime.halt();
}

TEST(ServeDelta, ProtocolRejectionsAnswer400) {
  RuntimeConfig config;
  ServeRuntime runtime(config);
  Server server(archived(runtime));
  runtime.boot(server);
  const std::uint16_t port = server.port();

  // Empty mutation list.
  EXPECT_EQ(code_of(one_shot(port, delta_request("acme", "[]"))),
            kCodeBadRequest);
  // Missing tenant.
  EXPECT_EQ(code_of(one_shot(port,
                             std::string(R"({"type":"delta","base":)") +
                                 kBase +
                                 R"(,"mutations":[{"op":"add-tasks",)"
                                 R"("count":1}]})")),
            kCodeBadRequest);
  // Trace-shape mutations are custom-only: the datasets' traces are fixed.
  EXPECT_EQ(
      code_of(one_shot(
          port, R"({"type":"delta","tenant":"acme",
                    "base":{"name":"dataset1"},
                    "mutations":[{"op":"add-tasks","count":2}]})")),
      kCodeBadRequest);
  // Infeasible machine drop (way out of range).
  EXPECT_EQ(
      code_of(one_shot(
          port, delta_request(
                    "acme", R"([{"op":"drop-machine","machine":9999}])"))),
      kCodeBadRequest);

  runtime.halt();
}

TEST(ServeDelta, ArchiveAdminVerbsOverLoopback) {
  RuntimeConfig config;
  ServeRuntime runtime(config);
  Server server(archived(runtime));
  runtime.boot(server);
  const std::uint16_t port = server.port();

  ASSERT_EQ(code_of(one_shot(port, allocate_request("acme"))), kCodeOk);

  const util::JsonValue stats =
      one_shot(port, R"({"type":"adminz","action":"archive-stats"})");
  ASSERT_EQ(code_of(stats), kCodeOk);
  EXPECT_EQ(stats.number_or("tenants", 0.0), 1.0);
  EXPECT_GE(stats.number_or("entries", 0.0), 1.0);
  ASSERT_NE(stats.get("per_tenant"), nullptr);
  ASSERT_EQ(stats.get("per_tenant")->array.size(), 1U);
  EXPECT_EQ(stats.get("per_tenant")->array[0].string_or("tenant", ""),
            "acme");

  const util::JsonValue cap = one_shot(
      port,
      R"({"type":"adminz","action":"archive-cap","name":"acme","value":2})");
  EXPECT_EQ(code_of(cap), kCodeOk);

  const util::JsonValue flush = one_shot(
      port, R"({"type":"adminz","action":"archive-flush","name":"acme"})");
  ASSERT_EQ(code_of(flush), kCodeOk);
  EXPECT_GE(flush.number_or("flushed", 0.0), 1.0);

  const util::JsonValue empty_stats =
      one_shot(port, R"({"type":"adminz","action":"archive-stats"})");
  EXPECT_EQ(empty_stats.number_or("entries", -1.0), 0.0);

  runtime.halt();
}

TEST(ServeDelta, ArchiveFlushWithANonStringNameFlushesNothing) {
  RuntimeConfig config;
  ServeRuntime runtime(config);
  Server server(archived(runtime));
  runtime.boot(server);
  const std::uint16_t port = server.port();
  ASSERT_EQ(code_of(one_shot(port, allocate_request("acme"))), kCodeOk);

  // A name of the wrong type is refused, not read as "every tenant".
  const util::JsonValue flush = one_shot(
      port, R"({"type":"adminz","action":"archive-flush","name":7})");
  EXPECT_EQ(code_of(flush), kCodeBadRequest);

  const util::JsonValue stats =
      one_shot(port, R"({"type":"adminz","action":"archive-stats"})");
  ASSERT_EQ(code_of(stats), kCodeOk);
  ASSERT_NE(stats.get("per_tenant"), nullptr);
  ASSERT_EQ(stats.get("per_tenant")->array.size(), 1U);
  EXPECT_EQ(stats.get("per_tenant")->array[0].string_or("tenant", ""),
            "acme");
  EXPECT_GE(stats.number_or("entries", 0.0), 1.0);

  runtime.halt();
}

TEST(ServeDelta, ArchiveVerbsWithoutArchiveAnswer400) {
  RuntimeConfig config;
  ServeRuntime runtime(config);
  ServerConfig server_config = archived(runtime);
  server_config.archive.max_tenants = 0;  // archive disabled
  Server server(server_config);
  runtime.boot(server);
  const std::uint16_t port = server.port();

  const util::JsonValue r =
      one_shot(port, R"({"type":"adminz","action":"archive-stats"})");
  EXPECT_EQ(code_of(r), kCodeBadRequest);
  EXPECT_NE(r.string_or("error", "").find("no warm-start archive"),
            std::string::npos);

  // A tenant allocate still works — it just never warms.
  const util::JsonValue a = one_shot(port, allocate_request("acme"));
  ASSERT_EQ(code_of(a), kCodeOk);

  runtime.halt();
}

TEST(ServeDelta, CheckpointSurvivesSigtermKillAndRestart) {
  const std::string path =
      testing::TempDir() + "/eus_delta_ckpt_restart_test";
  std::remove(path.c_str());

  // Life 1: archive a front for acme, then die by process-directed
  // SIGTERM — the drain writes the checkpoint.
  {
    RuntimeConfig config;
    config.signal_thread = true;
    ServeRuntime runtime(config);
    ServerConfig server_config = archived(runtime);
    server_config.archive_path = path;
    Server server(server_config);
    runtime.boot(server);
    ASSERT_EQ(code_of(one_shot(server.port(), allocate_request("acme"))),
              kCodeOk);
    ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);
    runtime.run();
    EXPECT_EQ(runtime.phase(), Phase::eHalted);
  }
  {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "checkpoint not written on drain";
  }

  // Life 2: a fresh runtime reloads the checkpoint and answers the
  // tenant's delta warm — no re-priming allocate needed.
  {
    RuntimeConfig config;
    ServeRuntime runtime(config);
    ServerConfig server_config = archived(runtime);
    server_config.archive_path = path;
    Server server(server_config);
    runtime.boot(server);
    const util::JsonValue delta = one_shot(
        server.port(),
        delta_request("acme", R"([{"op":"add-tasks","count":2}])",
                      R"(,"cold_fallback":false)"));
    ASSERT_EQ(code_of(delta), kCodeOk) << delta.string_or("error", "");
    ASSERT_NE(delta.get("warm"), nullptr);
    EXPECT_TRUE(delta.get("warm")->boolean);
    runtime.halt();
  }
  std::remove(path.c_str());
}

TEST(ServeDelta, CorruptCheckpointColdStartsTheBoot) {
  const std::string path =
      testing::TempDir() + "/eus_delta_ckpt_corrupt_test";
  std::ofstream(path) << "this is not an archive checkpoint\n";

  RuntimeConfig config;
  ServeRuntime runtime(config);
  ServerConfig server_config = archived(runtime);
  server_config.archive_path = path;
  Server server(server_config);
  runtime.boot(server);  // must not throw
  EXPECT_EQ(runtime.phase(), Phase::eRunning);
  const std::uint16_t port = server.port();

  const util::JsonValue m = one_shot(port, R"({"type":"metricsz"})");
  EXPECT_EQ(counter_of(m, "archive.checkpoint.corrupt"), 1.0);

  // The daemon serves normally from the empty archive.
  ASSERT_EQ(code_of(one_shot(port, allocate_request("acme"))), kCodeOk);

  runtime.halt();
  std::remove(path.c_str());
}

TEST(ServeDelta, HaltBeforeBootLeavesTheCheckpointAlone) {
  const std::string path =
      testing::TempDir() + "/eus_delta_ckpt_untouched_test";
  const std::string content = "a checkpoint this daemon never loaded\n";
  std::ofstream(path) << content;
  {
    RuntimeConfig config;
    ServeRuntime runtime(config);
    ServerConfig server_config = archived(runtime);
    server_config.archive_path = path;
    Server server(server_config);
    runtime.request_halt();
    runtime.boot(server);  // the halt beat the boot: never started
    runtime.run();
    EXPECT_EQ(runtime.phase(), Phase::eHalted);
    EXPECT_EQ(server.port(), 0);
  }
  // Neither the halt nor either destructor wrote the file.
  std::ifstream in(path);
  const std::string after((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(after, content);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eus::serve
