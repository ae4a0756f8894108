// Pins the single-point searches: simulated annealing, local search and
// front polishing on dataset 1, with and without a DVFS model.  Every
// expected result below was captured once and is hard-coded as objectives
// plus genome fingerprint.  A change to a search's draws, to how it
// evaluates a move or to its acceptance rule changes these results.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/local_search.hpp"
#include "core/operators.hpp"
#include "core/simulated_annealing.hpp"
#include "sched/dvfs.hpp"
#include "workload/scenarios.hpp"

namespace eus {
namespace {

struct PinnedResult {
  double energy;
  double utility;
  std::uint64_t fingerprint;
};

/// The results as a C++ initializer, so a deliberate re-pin is a paste.
std::string as_table(const std::vector<PinnedResult>& results) {
  std::string out = "{\n";
  char line[160];
  for (const PinnedResult& r : results) {
    std::snprintf(line, sizeof line, "      {%.17g, %.17g, 0x%016llxULL},\n",
                  r.energy, r.utility,
                  static_cast<unsigned long long>(r.fingerprint));
    out += line;
  }
  return out + "  }";
}

PinnedResult pinned(const EUPoint& objectives, const Allocation& genome) {
  return {objectives.energy, objectives.utility, genome_fingerprint(genome)};
}

void expect_pinned(const std::vector<PinnedResult>& got,
                   const std::vector<PinnedResult>& expected) {
  bool same = got.size() == expected.size();
  for (std::size_t k = 0; same && k < got.size(); ++k) {
    same = got[k].energy == expected[k].energy &&
           got[k].utility == expected[k].utility &&
           got[k].fingerprint == expected[k].fingerprint;
  }
  EXPECT_TRUE(same) << "results:\n" << as_table(got);
}

EvaluatorOptions dvfs_options() {
  EvaluatorOptions options;
  options.dvfs = make_cubic_dvfs({0.6, 0.8, 1.0});
  return options;
}

struct Dataset1 {
  Scenario scenario = make_dataset1(3);
  UtilityEnergyProblem plain{scenario.system, scenario.trace};
  UtilityEnergyProblem dvfs{scenario.system, scenario.trace, dvfs_options()};
};

std::vector<PinnedResult> anneal(const BiObjectiveProblem& problem) {
  Rng rng(41);
  SaOptions options;
  options.max_evaluations = 800;
  const SaResult r = simulated_annealing(
      problem, random_allocation(problem, rng), options, rng);
  return {pinned(r.objectives, r.allocation)};
}

std::vector<PinnedResult> climb(const BiObjectiveProblem& problem) {
  Rng rng(43);
  LocalSearchOptions options;
  options.max_evaluations = 800;
  options.patience = 200;
  const LocalSearchResult r =
      local_search(problem, random_allocation(problem, rng), options, rng);
  return {pinned(r.objectives, r.allocation)};
}

std::vector<PinnedResult> polish(const BiObjectiveProblem& problem) {
  Rng rng(47);
  std::vector<Allocation> front;
  for (int k = 0; k < 3; ++k) front.push_back(random_allocation(problem, rng));
  std::vector<PinnedResult> out;
  for (const LocalSearchResult& r : polish_front(problem, front, 200, rng)) {
    out.push_back(pinned(r.objectives, r.allocation));
  }
  return out;
}

TEST(SimulatedAnnealingPinned, Dataset1) {
  const Dataset1 fx;
  const std::vector<PinnedResult> expected = {
      {4457134, 446.74083429046465, 0x15d7976afab3dbd9ULL},
  };
  expect_pinned(anneal(fx.plain), expected);
}

TEST(SimulatedAnnealingPinned, Dataset1Dvfs) {
  const Dataset1 fx;
  const std::vector<PinnedResult> expected = {
      {2860360.48, 408.2861958590787, 0xc2e8b34779a51813ULL},
  };
  expect_pinned(anneal(fx.dvfs), expected);
}

TEST(LocalSearchPinned, Dataset1) {
  const Dataset1 fx;
  const std::vector<PinnedResult> expected = {
      {4137518, 683.62940468594002, 0xe60c6dc67e3e2fbeULL},
  };
  expect_pinned(climb(fx.plain), expected);
}

TEST(LocalSearchPinned, Dataset1Dvfs) {
  const Dataset1 fx;
  const std::vector<PinnedResult> expected = {
      {2653819.3599999999, 576.99156604070902, 0x1d4c529747efb9dfULL},
  };
  expect_pinned(climb(fx.dvfs), expected);
}

TEST(PolishFrontPinned, Dataset1) {
  const Dataset1 fx;
  const std::vector<PinnedResult> expected = {
      {4246570, 503.72957596763263, 0xd4f9792cb1b33db6ULL},
      {4356218, 495.8464297328299, 0x0d4e9dd8ebaf31dcULL},
      {4482680, 516.49595373621594, 0xaf2edb8fa0c219b8ULL},
  };
  expect_pinned(polish(fx.plain), expected);
}

TEST(PolishFrontPinned, Dataset1Dvfs) {
  const Dataset1 fx;
  const std::vector<PinnedResult> expected = {
      {2750680.8800000004, 378.16146190226118, 0x21f9c5bd49ba892fULL},
      {2981517.5999999996, 480.54346200301507, 0x94bcc70a68dc73bbULL},
      {3054831.7600000002, 435.20780442045526, 0x92d17d8511140572ULL},
  };
  expect_pinned(polish(fx.dvfs), expected);
}

}  // namespace
}  // namespace eus
