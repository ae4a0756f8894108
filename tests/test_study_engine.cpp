#include "core/study_engine.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "data/historical.hpp"
#include "tuf/builder.hpp"
#include "workload/generator.hpp"

namespace eus {
namespace {

TufClassLibrary mixed_library() {
  std::vector<TufClass> classes;
  classes.push_back({"l", 1.0, make_linear_decay_tuf(10.0, 0.0, 1500.0)});
  return TufClassLibrary(std::move(classes));
}

struct Fixture {
  SystemModel system = historical_system();
  Trace trace;
  UtilityEnergyProblem problem;

  Fixture() : trace(make_trace(system)), problem(system, trace) {}

  static Trace make_trace(const SystemModel& sys) {
    Rng rng(15);
    TraceConfig cfg;
    cfg.num_tasks = 40;
    cfg.window_seconds = 900.0;
    return generate_trace(sys, mixed_library(), cfg, rng);
  }
};

Nsga2Config tiny_config() {
  Nsga2Config cfg;
  cfg.population_size = 12;
  cfg.seed = 3;
  return cfg;
}

// The tentpole guarantee: concurrent execution is a scheduling change only.
// Every checkpointed front must match the serial harness bit for bit.
TEST(StudyEngine, ConcurrentMatchesSerialBitIdentical) {
  const Fixture fx;
  const auto specs = paper_population_specs();
  const std::vector<std::size_t> checkpoints = {2, 5, 9};

  const StudyResult serial =
      run_seeding_study(fx.problem, tiny_config(), checkpoints, specs);

  StudyEngineConfig config;
  config.threads = 4;
  StudyEngine engine(config);
  const StudyResult parallel =
      engine.run(fx.problem, tiny_config(), checkpoints, specs);

  ASSERT_EQ(serial.fronts.size(), parallel.fronts.size());
  EXPECT_EQ(serial.fronts, parallel.fronts);
  EXPECT_EQ(serial.population_names, parallel.population_names);
  EXPECT_EQ(serial.checkpoints, parallel.checkpoints);
}

// A reused engine carries nothing from one run into the next: running the
// same study twice on one engine (and its pool) reproduces it bit for bit.
TEST(StudyEngine, RepeatRunReproducesFronts) {
  const Fixture fx;
  const auto specs = paper_population_specs();
  StudyEngineConfig config;
  config.threads = 2;
  StudyEngine engine(config);
  const StudyResult first = engine.run(fx.problem, tiny_config(), {3}, specs);
  const StudyResult second = engine.run(fx.problem, tiny_config(), {3}, specs);
  EXPECT_EQ(first.fronts, second.fronts);
}

TEST(StudyEngine, ResultIndependentOfThreadCount) {
  const Fixture fx;
  const auto specs = paper_population_specs();

  StudyEngineConfig two;
  two.threads = 2;
  StudyEngineConfig five;
  five.threads = 5;
  StudyEngine a(two);
  StudyEngine b(five);
  const StudyResult ra = a.run(fx.problem, tiny_config(), {3, 7}, specs);
  const StudyResult rb = b.run(fx.problem, tiny_config(), {3, 7}, specs);
  EXPECT_EQ(ra.fronts, rb.fronts);
}

TEST(StudyEngine, SharedPoolNsga2MatchesSerialNsga2) {
  const Fixture fx;
  ThreadPool pool(4);

  Nsga2Config serial = tiny_config();
  Nsga2Config shared = tiny_config();
  shared.shared_pool = &pool;

  Nsga2 a(fx.problem, serial);
  Nsga2 b(fx.problem, shared);
  a.initialize({});
  b.initialize({});
  a.iterate(8);
  b.iterate(8);
  EXPECT_EQ(a.front_points(), b.front_points());
}

// Seeds are built inside the population tasks, each heuristic once and
// shared by every spec listing it (the all-four-seeds spec repeats the
// four single-seed specs' seeds).  Every population must still evolve
// exactly as a direct Nsga2 run seeded with freshly built seeds.
TEST(StudyEngine, SeedsBuiltInPopulationTasksMatchDirectRuns) {
  const Fixture fx;
  const auto specs = extended_population_specs();
  StudyEngineConfig config;
  config.threads = 4;
  StudyEngine engine(config);
  const StudyResult result = engine.run(fx.problem, tiny_config(), {6}, specs);

  for (std::size_t p = 0; p < specs.size(); ++p) {
    SCOPED_TRACE(specs[p].name);
    Nsga2Config direct = tiny_config();
    direct.seed = tiny_config().seed + kPopulationSeedStride * (p + 1);
    std::vector<Allocation> seeds;
    for (const SeedHeuristic h : specs[p].seeds) {
      seeds.push_back(make_seed(h, fx.system, fx.trace));
    }
    Nsga2 ga(fx.problem, direct);
    ga.initialize(seeds);
    ga.iterate(6);
    EXPECT_EQ(result.final_front(p), ga.front_points());
  }
}

TEST(StudyEngine, ResolvedThreadCount) {
  StudyEngine serial;
  EXPECT_EQ(serial.threads(), 1U);

  StudyEngineConfig config;
  config.threads = 3;
  StudyEngine pooled(config);
  EXPECT_EQ(pooled.threads(), 3U);
}

TEST(StudyEngine, ValidatesArguments) {
  const Fixture fx;
  StudyEngine engine;
  EXPECT_THROW(
      engine.run(fx.problem, tiny_config(), {}, paper_population_specs()),
      std::invalid_argument);
  EXPECT_THROW(
      engine.run(fx.problem, tiny_config(), {5, 5},
                 paper_population_specs()),
      std::invalid_argument);
  EXPECT_THROW(engine.run(fx.problem, tiny_config(), {1, 2}, {}),
               std::invalid_argument);
}

TEST(StudyEngine, ProgressSerializedAndComplete) {
  const Fixture fx;
  StudyEngineConfig config;
  config.threads = 4;
  StudyEngine engine(config);
  std::size_t calls = 0;
  (void)engine.run(fx.problem, tiny_config(), {1, 2},
                   paper_population_specs(),
                   [&](const std::string&, std::size_t) { ++calls; });
  // The engine serializes the callback, so a plain counter must be exact.
  EXPECT_EQ(calls, 5U * 2U);
}

TEST(StudyEngine, MetricsAggregateAcrossPopulations) {
  const Fixture fx;
  MetricsRegistry metrics;
  StudyEngineConfig config;
  config.threads = 2;
  config.metrics = &metrics;
  StudyEngine engine(config);
  const auto specs = paper_population_specs();
  (void)engine.run(fx.problem, tiny_config(), {4}, specs);

  const MetricsSnapshot snap = metrics.snapshot();
  // Every population runs 4 generations.
  EXPECT_EQ(snap.counters.at("nsga2.generations"), specs.size() * 4U);
  // Per population: N initial evaluations + N offspring per generation.
  EXPECT_EQ(snap.counters.at("nsga2.evaluations"),
            specs.size() * 12U * (1U + 4U));
  EXPECT_GT(snap.timers.at("nsga2.evaluation_s").count, 0U);
  EXPECT_GT(snap.gauges.at("nsga2.front_size"), 0.0);
}

TEST(StudyEngine, RecorderEmitsParseableJsonl) {
  const Fixture fx;
  std::ostringstream out;
  RunRecorder recorder(out);
  MetricsRegistry metrics;
  StudyEngineConfig config;
  config.threads = 2;
  config.metrics = &metrics;
  config.recorder = &recorder;
  config.study_label = "unit study";
  StudyEngine engine(config);
  const auto specs = paper_population_specs();
  const std::vector<std::size_t> checkpoints = {1, 3};
  (void)engine.run(fx.problem, tiny_config(), checkpoints, specs);

  // config + one line per (population, checkpoint) + summary.
  EXPECT_EQ(recorder.lines_written(),
            1U + specs.size() * checkpoints.size() + 1U);
  std::istringstream in(out.str());
  std::string line;
  std::size_t config_lines = 0, checkpoint_lines = 0, summary_lines = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"type\":\"config\"") != std::string::npos) ++config_lines;
    if (line.find("\"type\":\"checkpoint\"") != std::string::npos) {
      ++checkpoint_lines;
      EXPECT_NE(line.find("\"front\":[["), std::string::npos);
    }
    if (line.find("\"type\":\"summary\"") != std::string::npos) {
      ++summary_lines;
      EXPECT_NE(line.find("\"nsga2.evaluations\""), std::string::npos);
    }
  }
  EXPECT_EQ(config_lines, 1U);
  EXPECT_EQ(checkpoint_lines, specs.size() * checkpoints.size());
  EXPECT_EQ(summary_lines, 1U);
}

TEST(StudyEngine, EvaluatorMetricsCountViaProblemOptions) {
  MetricsRegistry metrics;
  const Fixture fx;
  EvaluatorOptions options;
  options.metrics = &metrics;
  const UtilityEnergyProblem instrumented(fx.system, fx.trace, options);

  StudyEngine engine;
  (void)engine.run(instrumented, tiny_config(), {2},
                   paper_population_specs());
  const MetricsSnapshot snap = metrics.snapshot();
  // Seed construction evaluates nothing through the evaluator's fast path
  // beyond the populations: N initial + N per generation, per population.
  EXPECT_EQ(snap.counters.at("evaluator.evaluations"), 5U * 12U * (1U + 2U));
  // Every evaluated offspring is a delta hit or a counted fallback, also
  // when the lineage walk stopped it before the evaluator saw a diff.
  const std::uint64_t hits = snap.counters.at("evaluator.incremental.hits");
  const std::uint64_t fallbacks =
      snap.counters.at("evaluator.incremental.fallbacks");
  EXPECT_EQ(hits + fallbacks,
            snap.counters.at("evaluator.evaluations") - 5U * 12U);
  EXPECT_GT(fallbacks, 0U);
}

}  // namespace
}  // namespace eus
