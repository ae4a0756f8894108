#include "core/study_engine.hpp"

#include <map>
#include <mutex>
#include <stdexcept>

#include "util/stopwatch.hpp"

namespace eus {

StudyEngine::StudyEngine(StudyEngineConfig config)
    : config_(std::move(config)) {
  if (config_.threads != 1) {
    pool_ = std::make_unique<ThreadPool>(config_.threads);
  }
}

StudyEngine::~StudyEngine() = default;

StudyResult StudyEngine::run(const BiObjectiveProblem& problem,
                             const Nsga2Config& base_config,
                             const std::vector<std::size_t>& checkpoints,
                             const std::vector<PopulationSpec>& specs,
                             const StudyProgress& progress) {
  if (checkpoints.empty()) throw std::invalid_argument("no checkpoints");
  for (std::size_t i = 1; i < checkpoints.size(); ++i) {
    if (checkpoints[i] <= checkpoints[i - 1]) {
      throw std::invalid_argument("checkpoints must be strictly increasing");
    }
  }
  if (specs.empty()) throw std::invalid_argument("no population specs");

  StudyResult result;
  result.checkpoints = checkpoints;
  result.fronts.resize(specs.size());

  // Each heuristic's seed is built once, by the first population task that
  // needs it, and copied into every spec that lists it (the combined spec
  // repeats every single-heuristic spec's seed).  Building inside the
  // population tasks lets unseeded and cheaply seeded populations start
  // evolving while the slow greedy constructions (min-min) still run.  The
  // constructions are pure reads of the shared problem, so every population
  // sees the same seeds whichever task built them.
  struct SeedSlot {
    std::once_flag once;
    Allocation genome;
  };
  std::map<SeedHeuristic, SeedSlot> seed_memo;
  for (const PopulationSpec& spec : specs) {
    result.population_names.push_back(spec.name);
    result.markers.push_back(spec.marker);
    for (const SeedHeuristic h : spec.seeds) seed_memo.try_emplace(h);
  }
  const auto seeds_of = [&](const PopulationSpec& spec) {
    std::vector<Allocation> seeds;
    seeds.reserve(spec.seeds.size());
    for (const SeedHeuristic h : spec.seeds) {
      SeedSlot& slot = seed_memo.at(h);
      std::call_once(slot.once, [&] {
        slot.genome = make_seed(h, problem.system(), problem.trace());
      });
      seeds.push_back(slot.genome);
    }
    return seeds;
  };

  if (config_.recorder != nullptr) {
    RunInfo info;
    info.study = config_.study_label;
    info.seed = base_config.seed;
    info.population_size = base_config.population_size;
    info.threads = threads();
    info.mutation_probability = base_config.mutation_probability;
    info.checkpoints = checkpoints;
    info.populations = result.population_names;
    config_.recorder->record_config(info);
  }

  Stopwatch timer;
  std::mutex progress_mutex;

  const auto run_population = [&](std::size_t p) {
    Nsga2Config config = base_config;
    config.seed =
        base_config.seed + kPopulationSeedStride * (p + 1);  // own stream
    if (pool_) {
      // Nested parallelism: offspring pairs share the engine's pool.
      config.shared_pool = pool_.get();
    }
    if (config_.metrics != nullptr) config.metrics = config_.metrics;

    Nsga2 algorithm(problem, config);
    algorithm.initialize(seeds_of(specs[p]));

    std::vector<std::vector<EUPoint>>& fronts = result.fronts[p];
    fronts.reserve(checkpoints.size());
    std::size_t done = 0;
    for (const std::size_t target : checkpoints) {
      algorithm.iterate(target - done);
      done = target;
      fronts.push_back(algorithm.front_points());
      if (config_.recorder != nullptr) {
        config_.recorder->record_checkpoint(specs[p].name, done,
                                            fronts.back(), timer.seconds());
      }
      if (progress) {
        const std::lock_guard lock(progress_mutex);
        progress(specs[p].name, done);
      }
    }
  };

  if (pool_) {
    pool_->parallel_for(specs.size(), run_population);
  } else {
    for (std::size_t p = 0; p < specs.size(); ++p) run_population(p);
  }

  if (config_.recorder != nullptr) {
    config_.recorder->record_summary(
        timer.seconds(),
        config_.metrics ? config_.metrics->snapshot() : MetricsSnapshot{});
  }
  return result;
}

}  // namespace eus
