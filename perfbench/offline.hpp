#pragma once

// The offline workloads: the paper's five seeded NSGA-II populations on one
// dataset at a fixed generation budget, driven through StudyEngine::run
// with library defaults and an explicit thread count.

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/problem.hpp"
#include "core/study.hpp"
#include "workload/scenarios.hpp"

namespace perfbench {

struct StudyParams {
  int dataset = 1;               ///< 1 or 3
  std::size_t threads = 1;       ///< StudyEngine pool size (1 = serial)
  std::size_t generations = 0;   ///< the fixed budget per population
  /// Seeded (dataset, GA seed) instances per run; the study's cost varies
  /// by about 10% between instances, so figures average over several.
  std::size_t instances = 1;
};

[[nodiscard]] bool is_study_workload(const std::string& workload);
[[nodiscard]] StudyParams study_params(const std::string& workload);

/// What the timed study needs: scenario, problem and the four greedy seeds.
/// The problem refers into the scenario, so both live on the heap.
struct StudySetup {
  std::unique_ptr<eus::Scenario> scenario;
  std::unique_ptr<eus::UtilityEnergyProblem> problem;
  std::vector<eus::Allocation> seeds;
};

/// Dataset seed and GA base seed of one instance, from the workload seed.
[[nodiscard]] std::uint64_t dataset_seed(std::uint64_t seed,
                                         std::size_t instance);
[[nodiscard]] std::uint64_t ga_seed(std::uint64_t seed, std::size_t instance);

[[nodiscard]] StudySetup build_study_setup(const StudyParams& params,
                                           std::uint64_t seed,
                                           std::size_t instance,
                                           eus::MetricsRegistry* metrics);

/// The Nsga2Config a study run uses: library defaults plus the seed.
[[nodiscard]] eus::Nsga2Config study_config(std::uint64_t seed,
                                            std::size_t instance);

/// End-to-end run of study_ds1 / study_ds3 (trace 0).
void run_study_workload(const Options& options, Report& report);

}  // namespace perfbench
