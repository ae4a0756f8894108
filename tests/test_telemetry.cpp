#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/run_recorder.hpp"
#include "util/json_value.hpp"

namespace eus {
namespace {

TEST(Json, EscapesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(Json, NumbersRoundTripAndDegrade) {
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(std::stod(json_number(1.0 / 3.0)), 1.0 / 3.0);
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(Json, ObjectBuilder) {
  JsonObject o;
  o.field("s", "x\"y")
      .field("d", 2.5)
      .field("u", std::uint64_t{7})
      .field("b", true)
      .raw("a", "[1,2]");
  EXPECT_EQ(o.str(), R"({"s":"x\"y","d":2.5,"u":7,"b":true,"a":[1,2]})");
}

TEST(Json, TextWritesParsedValuesBack) {
  const util::JsonValue doc = util::parse_json(
      R"({"b":[1,-0.5,1e300,true,null,{}],"a":"q\"\\\n\u00e9",)"
      R"("c":{"z":[],"y":9007199254740993}})");
  // Objects come out in key order, strings re-escaped, numbers shortest.
  EXPECT_EQ(json_text(doc), R"({"a":"q\"\\\n)"
                            "\xc3\xa9"
                            R"(","b":[1,-0.5,1e+300,true,null,{}],)"
                            R"("c":{"y":9007199254740992,"z":[]}})");
  EXPECT_EQ(json_text(util::parse_json(json_text(doc))), json_text(doc));
  EXPECT_EQ(json_text(util::parse_json("1e400")), "null");
}

TEST(Metrics, CounterGaugeTimer) {
  MetricsRegistry registry;
  Counter& c = registry.counter("c");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5U);

  registry.gauge("g").set(2.25);
  EXPECT_EQ(registry.gauge("g").value(), 2.25);

  TimerMetric& t = registry.timer("t");
  { const ScopedTimer scope(&t); }
  { const ScopedTimer scope(&t); }
  EXPECT_EQ(t.count(), 2U);
  EXPECT_GE(t.total_seconds(), 0.0);
}

TEST(Metrics, NullScopedTimerIsNoop) {
  const ScopedTimer scope(nullptr);  // must not crash
}

TEST(Metrics, LookupReturnsSameInstance) {
  MetricsRegistry registry;
  EXPECT_EQ(&registry.counter("x"), &registry.counter("x"));
  EXPECT_NE(&registry.counter("x"), &registry.counter("y"));
}

TEST(Metrics, ConcurrentCountsAreExact) {
  MetricsRegistry registry;
  Counter& c = registry.counter("hits");
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 80000U);
}

TEST(Metrics, SnapshotCopiesEverything) {
  MetricsRegistry registry;
  registry.counter("evals").add(42);
  registry.gauge("front").set(12.0);
  registry.timer("phase").add(std::chrono::nanoseconds(2'000'000'000));

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("evals"), 42U);
  EXPECT_EQ(snap.gauges.at("front"), 12.0);
  EXPECT_NEAR(snap.timers.at("phase").seconds, 2.0, 1e-9);
  EXPECT_EQ(snap.timers.at("phase").count, 1U);
}

TEST(RunRecorder, EmitsOneJsonObjectPerLine) {
  std::ostringstream out;
  RunRecorder recorder(out);

  RunInfo info;
  info.study = "unit \"study\"";
  info.seed = 99;
  info.population_size = 12;
  info.threads = 4;
  info.mutation_probability = 0.25;
  info.checkpoints = {1, 5};
  info.populations = {"a", "b"};
  recorder.record_config(info);
  recorder.record_checkpoint("a", 5, {{1.5, 2.0}, {3.0, 1.0}}, 0.75);
  MetricsRegistry registry;
  registry.counter("nsga2.evaluations").add(100);
  recorder.record_summary(1.5, registry.snapshot());

  EXPECT_EQ(recorder.lines_written(), 3U);
  std::istringstream in(out.str());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3U);
  for (const auto& l : lines) {
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
  }
  EXPECT_NE(lines[0].find("\"type\":\"config\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"seed\":99"), std::string::npos);
  EXPECT_NE(lines[0].find("\"checkpoints\":[1,5]"), std::string::npos);
  EXPECT_NE(lines[0].find("unit \\\"study\\\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\":\"checkpoint\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"front\":[[1.5,2],[3,1]]"), std::string::npos);
  EXPECT_NE(lines[1].find("\"front_size\":2"), std::string::npos);
  EXPECT_NE(lines[2].find("\"type\":\"summary\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"nsga2.evaluations\":100"), std::string::npos);
}

TEST(RunRecorder, ThrowsOnUnopenablePath) {
  EXPECT_THROW(RunRecorder("/nonexistent-dir/x/y.jsonl"),
               std::runtime_error);
}

}  // namespace
}  // namespace eus
