// Pins the bytes of allocate answers: a cache hit answers with the computed
// answer's bytes apart from "cache" and "timing" (through handle_allocate
// and through the connection thread's answer_from_cache), every front is
// written as its numbers' shortest round-trip decimals in a fixed member
// order, and answers for fixed fronts equal hand-written golden strings.
// Every request carries an id that needs escaping.  Covered: nsga2,
// pareto-query (constrained, and the knee default), a heuristic with its
// allocation, a tenant allocate and a partial (deadline) answer.

#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "serve/front_cache.hpp"
#include "serve/handlers.hpp"
#include "serve/protocol.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "tenant/archive_store.hpp"
#include "util/json_value.hpp"

namespace eus::serve {
namespace {

// A quote, a backslash and a control byte: each id below needs escaping.
constexpr std::string_view kIdEscapes = R"(\"\\\t)";

constexpr std::string_view kScenario =
    R"("scenario":{"name":"custom","tasks":10,"window_s":30,"seed":3})";
constexpr std::string_view kBudget =
    R"("nsga2":{"population":8,"generations":4,"seeds":["min-energy"]})";

std::string request_text(std::string_view id, std::string_view mode,
                         std::string_view extra = "") {
  std::string text = R"({"type":"allocate","id":")";
  text += id;
  text += kIdEscapes;
  text += R"(","mode":")";
  text += mode;
  text += "\",";
  text += kScenario;
  text += extra;
  text += '}';
  return text;
}

std::string nsga2_text(std::string_view id, std::string_view mode,
                       std::string_view extra = "") {
  std::string members = ",";
  members += kBudget;
  members += extra;
  return request_text(id, mode, members);
}

/// The answer without its "timing" member (always the last one), and with
/// a hit's "cache":"hit" read as "cache":"miss".
std::string without_cache_and_timing(std::string payload) {
  const std::size_t hit = payload.find(R"("cache":"hit")");
  if (hit != std::string::npos) {
    payload.replace(hit, 13, R"("cache":"miss")");
  }
  const std::size_t timing = payload.find(R"(,"timing":{)");
  EXPECT_NE(timing, std::string::npos) << payload;
  if (timing == std::string::npos) return payload;
  const std::size_t close = payload.find('}', timing);
  EXPECT_EQ(close + 2, payload.size()) << payload;
  payload.erase(timing, close + 1 - timing);
  return payload;
}

/// The front as the protocol writes it, built here from the parsed numbers
/// with json_number: [{"energy":e,"utility":u},...].
std::string expected_front(const util::JsonValue& doc) {
  const util::JsonValue* front = doc.get("front");
  EXPECT_NE(front, nullptr);
  std::string out = "[";
  if (front == nullptr) return out + ']';
  for (const util::JsonValue& point : front->array) {
    if (out.size() > 1) out += ',';
    out += R"({"energy":)" + json_number(point.number_or("energy", 0.0)) +
           R"(,"utility":)" + json_number(point.number_or("utility", 0.0)) +
           '}';
  }
  return out + ']';
}

/// Checks the answer's escaped id and that its front member is written as
/// expected_front writes it.
void expect_well_written(const std::string& payload, std::string_view id) {
  EXPECT_NE(payload.find(R"("id":")" + std::string(id) + R"(\"\\\t",)"),
            std::string::npos)
      << payload;
  const util::JsonValue doc = util::parse_json(payload);
  EXPECT_EQ(doc.string_or("id", ""), std::string(id) + "\"\\\t");
  ASSERT_NE(doc.get("front"), nullptr) << payload;
  EXPECT_FALSE(doc.get("front")->array.empty()) << payload;
  EXPECT_NE(payload.find(R"("front":)" + expected_front(doc) + ','),
            std::string::npos)
      << payload;
}

struct Daemon {
  MetricsRegistry metrics;
  FrontCache cache{16, &metrics};
  tenant::ArchiveStore archive{{}, &metrics};
  HandlerContext ctx{&metrics, &cache, nullptr, &archive};

  HandleResult handle(const std::string& text,
                      std::optional<double> remaining_ms = std::nullopt) {
    return handle_allocate(parse_request_text(text), ctx, remaining_ms, 1.5);
  }
};

/// Computes `text` on a fresh daemon, then answers it twice more from the
/// cache (a worker's lookup and a connection thread's probe): all three
/// answers carry the same bytes apart from "cache" and "timing".
std::string expect_hits_match(const std::string& text, std::string_view id) {
  Daemon daemon;
  const HandleResult computed = daemon.handle(text);
  EXPECT_EQ(computed.code, kCodeOk) << computed.payload;
  EXPECT_FALSE(computed.cache_hit);
  EXPECT_NE(computed.payload.find(R"("cache":"miss")"), std::string::npos);
  expect_well_written(computed.payload, id);

  const HandleResult hit = daemon.handle(text);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.code, computed.code);
  EXPECT_NE(hit.payload.find(R"("cache":"hit")"), std::string::npos);
  EXPECT_EQ(without_cache_and_timing(hit.payload),
            without_cache_and_timing(computed.payload));

  const std::optional<HandleResult> inline_hit =
      answer_from_cache(parse_request_text(text), daemon.ctx);
  EXPECT_TRUE(inline_hit.has_value());
  if (inline_hit) {
    EXPECT_TRUE(inline_hit->cache_hit);
    EXPECT_EQ(inline_hit->code, computed.code);
    EXPECT_EQ(without_cache_and_timing(inline_hit->payload),
              without_cache_and_timing(computed.payload));
  }
  return computed.payload;
}

TEST(ServeAnswers, Nsga2HitRepeatsTheComputedBytes) {
  const std::string answer =
      expect_hits_match(nsga2_text("n1", "nsga2"), "n1");
  EXPECT_EQ(answer.find(R"("objectives")"), std::string::npos);
  EXPECT_EQ(answer.find(R"("allocation")"), std::string::npos);
}

TEST(ServeAnswers, ParetoQueryHitRepeatsTheComputedBytes) {
  const std::string constrained = nsga2_text(
      "pc", "pareto-query", R"(,"query":{"max_energy":1e12,"min_utility":0})");
  const std::string knee = nsga2_text("pk", "pareto-query");
  for (const std::string& text : {constrained, knee}) {
    const std::string id = text == knee ? "pk" : "pc";
    const std::string answer = expect_hits_match(text, id);
    EXPECT_NE(answer.find(R"(,"objectives":{"energy":)"), std::string::npos)
        << answer;

    // A pareto-query reads the front an nsga2 request deposited under the
    // same fingerprint: that hit answers with the computed query's bytes.
    Daemon daemon;
    ASSERT_EQ(daemon.handle(nsga2_text("n1", "nsga2")).code, kCodeOk);
    const HandleResult hit = daemon.handle(text);
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(without_cache_and_timing(hit.payload),
              without_cache_and_timing(answer));
  }
}

TEST(ServeAnswers, HeuristicHitRepeatsTheComputedBytes) {
  const std::string answer = expect_hits_match(
      request_text("h1", "heuristic:min-energy"), "h1");
  EXPECT_NE(answer.find(R"(,"objectives":{"energy":)"), std::string::npos);
  EXPECT_NE(answer.find(R"(,"allocation":{"machine":[)"), std::string::npos);
}

TEST(ServeAnswers, TenantHitRepeatsTheComputedBytes) {
  const std::string answer = expect_hits_match(
      nsga2_text("t1", "nsga2", R"(,"tenant":"acme")"), "t1");
  EXPECT_NE(answer.find(R"("tenant":"acme","warm":false,"cache":"miss")"),
            std::string::npos)
      << answer;
}

TEST(ServeAnswers, PartialAnswerIsNeverCached) {
  Daemon daemon;
  const std::string text = nsga2_text("d1", "nsga2");
  const HandleResult partial = daemon.handle(text, 0.0);
  EXPECT_EQ(partial.code, kCodePartial);
  expect_well_written(partial.payload, "d1");
  EXPECT_FALSE(
      answer_from_cache(parse_request_text(text), daemon.ctx).has_value());
  const HandleResult full = daemon.handle(text);
  EXPECT_EQ(full.code, kCodeOk);
  EXPECT_FALSE(full.cache_hit);
}

TEST(ServeAnswers, FixedFrontsMatchGoldenBytes) {
  // A heuristic's front is its one evaluated allocation; the deadline
  // answer's is generation 0's front.  Both are deterministic, so their
  // bytes are written out here in full.
  Daemon daemon;
  const std::string heuristic =
      daemon.handle(R"({"type":"allocate","id":"g\"1\\\t",)"
                    R"("mode":"heuristic:min-energy","scenario":)"
                    R"({"name":"custom","tasks":6,"window_s":60,"seed":2}})")
          .payload;
  EXPECT_EQ(without_cache_and_timing(heuristic),
            R"({"type":"response","id":"g\"1\\\t","status":"ok","code":200,)"
            R"("mode":"heuristic:min-energy","scenario":"custom",)"
            R"("cache":"miss",)"
            R"("front":[{"energy":61948,"utility":0.9166666666666665}],)"
            R"("objectives":{"energy":61948,"utility":0.9166666666666665},)"
            R"("allocation":{"machine":[7,7,7,7,7,7],"order":[0,1,2,3,4,5],)"
            R"("pstate":[]},"generations":0,"evaluations":1,)"
            R"("deadline_exceeded":false})");

  const std::string partial =
      daemon.handle(R"({"type":"allocate","id":"g\"2\\\t","mode":"nsga2",)"
                    R"("scenario":{"name":"custom","tasks":6,"window_s":60,)"
                    R"("seed":2},"nsga2":{"population":8,"generations":2,)"
                    R"("seeds":["min-energy","max-utility"]}})",
                    0.0)
          .payload;
  EXPECT_EQ(without_cache_and_timing(partial),
            R"({"type":"response","id":"g\"2\\\t","status":"partial",)"
            R"("code":206,"mode":"nsga2","scenario":"custom","cache":"miss",)"
            R"("front":[{"energy":61948,"utility":0.9166666666666665},)"
            R"({"energy":77978,"utility":17.72222222222222}],)"
            R"("generations":0,"evaluations":8,"deadline_exceeded":true})");
}

}  // namespace
}  // namespace eus::serve
