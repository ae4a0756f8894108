// Pins NSGA-II's RNG draw order: every final front below was captured once
// and is hard-coded, point by point and genome by genome.  A change that
// reorders, adds or drops a single draw (parent pick, tournament coin flip,
// crossover segment, mutation gene/machine/partner/P-state, the j == i
// re-pick) changes these fronts.  Each case runs serially and on a 4-worker
// pool, and both must reproduce the same table.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/nsga2.hpp"
#include "data/historical.hpp"
#include "heuristics/seeds.hpp"
#include "sched/dvfs.hpp"
#include "tuf/builder.hpp"
#include "workload/generator.hpp"

namespace eus {
namespace {

struct PinnedMember {
  double energy;
  double utility;
  std::uint64_t fingerprint;
};

TufClassLibrary mixed_library() {
  std::vector<TufClass> classes;
  classes.push_back({"l", 2.0, make_linear_decay_tuf(10.0, 0.0, 1500.0)});
  classes.push_back({"h", 1.0, make_hard_deadline_tuf(20.0, 1200.0)});
  return TufClassLibrary(std::move(classes));
}

Trace pinned_trace(const SystemModel& system) {
  Rng rng(5);
  TraceConfig cfg;
  cfg.num_tasks = 30;
  cfg.window_seconds = 900.0;
  return generate_trace(system, mixed_library(), cfg, rng);
}

Nsga2Config pinned_config(double mutation_probability) {
  Nsga2Config cfg;
  cfg.population_size = 12;
  cfg.mutation_probability = mutation_probability;
  cfg.seed = 31;
  return cfg;
}

/// The final front as a C++ initializer, so a deliberate re-pin is a paste.
std::string as_table(const std::vector<PinnedMember>& front) {
  std::string out = "{\n";
  char line[160];
  for (const PinnedMember& m : front) {
    std::snprintf(line, sizeof line, "      {%.17g, %.17g, 0x%016llxULL},\n",
                  m.energy, m.utility,
                  static_cast<unsigned long long>(m.fingerprint));
    out += line;
  }
  return out + "  }";
}

/// Evolves `generations` generations at 1 and 4 threads and checks each
/// final front against `expected`.
void expect_pinned(const BiObjectiveProblem& problem, Nsga2Config config,
                   const std::vector<Allocation>& seeds,
                   std::size_t generations,
                   const std::vector<PinnedMember>& expected,
                   const GenerationObserver& observer = {}) {
  for (const std::size_t threads : {1U, 4U}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    config.threads = threads;
    Nsga2 ga(problem, config);
    ga.set_observer(observer);
    ga.initialize(seeds);
    ga.iterate(generations);
    std::vector<PinnedMember> front;
    for (const Individual& ind : ga.front()) {
      front.push_back({ind.objectives.energy, ind.objectives.utility,
                       genome_fingerprint(ind.genome)});
    }
    bool same = front.size() == expected.size();
    for (std::size_t k = 0; same && k < front.size(); ++k) {
      same = front[k].energy == expected[k].energy &&
             front[k].utility == expected[k].utility &&
             front[k].fingerprint == expected[k].fingerprint;
    }
    EXPECT_TRUE(same) << "final front:\n" << as_table(front);
  }
}

struct PinnedFixture {
  SystemModel system = historical_system();
  Trace trace = pinned_trace(system);
  UtilityEnergyProblem problem{system, trace};
};

TEST(Nsga2Pinned, UniformSelectionWithoutMutation) {
  const PinnedFixture fx;
  const std::vector<PinnedMember> front = {
      {455906, 322.78304312601341, 0x7666a53aace8fe3fULL},
      {466024, 326.12497597348954, 0xf39ef260c9430e34ULL},
      {469130, 333.54786571556292, 0x328849421f978e16ULL},
      {475268, 342.04791632535517, 0x2e5e9df558318122ULL},
      {475268, 342.04791632535517, 0x2e5e9df558318122ULL},
      {475268, 342.04791632535517, 0x2e5e9df558318122ULL},
      {475268, 342.04791632535517, 0x2e5e9df558318122ULL},
      {475268, 342.04791632535517, 0x2e5e9df558318122ULL},
      {483674, 346.90292618174254, 0x2476a0d54017e4bdULL},
      {515160, 349.23557587981929, 0x81200aa1df8ef478ULL},
      {515160, 349.23557587981929, 0x81200aa1df8ef478ULL},
      {515160, 349.23557587981929, 0x81200aa1df8ef478ULL},
  };
  expect_pinned(fx.problem, pinned_config(0.0), {}, 12, front);
}

TEST(Nsga2Pinned, UniformSelectionSometimesMutating) {
  const PinnedFixture fx;
  const std::vector<PinnedMember> front = {
      {458720, 338.97348896750384, 0x01d20c9e70fd3eb9ULL},
      {484142, 340.2279517791207, 0x9a51493d9bf7a205ULL},
      {487922, 343.73523075709505, 0xffd4fe203eff0557ULL},
      {501340, 345.23515191579429, 0x1a17c848bbaacd90ULL},
      {501340, 345.23515191579429, 0x1a17c848bbaacd90ULL},
  };
  expect_pinned(fx.problem, pinned_config(0.3), {}, 12, front);
}

TEST(Nsga2Pinned, UniformSelectionAlwaysMutating) {
  const PinnedFixture fx;
  const std::vector<PinnedMember> front = {
      {433054, 310.98867627777423, 0x75118c607c33d538ULL},
      {455024, 320.62918271071896, 0xb5a88ea818203ff8ULL},
      {456186, 331.08981634039515, 0xe2134f91e5f05ebcULL},
      {456790, 331.10346112092077, 0x7fc37accb7a3cdf4ULL},
      {462568, 332.4530462719477, 0x863f5ec090ccc717ULL},
      {466496, 343.23024244008866, 0xc87b94b98a41344cULL},
      {486674, 343.98185510971655, 0x016cd4a752457336ULL},
      {497830, 348.51584347266544, 0xdd41da54f91090c5ULL},
      {499778, 351.80638735572751, 0xe30bb44c394a147dULL},
  };
  expect_pinned(fx.problem, pinned_config(1.0), {}, 12, front);
}

TEST(Nsga2Pinned, CrowdedTournamentWithCrowdingTies) {
  const PinnedFixture fx;
  Nsga2Config cfg = pinned_config(0.3);
  cfg.selection = SelectionMode::kCrowdedTournament;
  // Every rank's two boundary members carry infinite crowding, so exact
  // ties (settled by a coin flip) are drawable every generation.
  std::size_t generations_with_ties = 0;
  const GenerationObserver count_ties =
      [&](std::size_t, const std::vector<Individual>& population) {
        bool tie = false;
        for (std::size_t a = 0; a < population.size() && !tie; ++a) {
          for (std::size_t b = a + 1; b < population.size() && !tie; ++b) {
            tie = population[a].rank == population[b].rank &&
                  population[a].crowding == population[b].crowding;
          }
        }
        if (tie) ++generations_with_ties;
      };
  const std::vector<PinnedMember> front = {
      {459838, 329.19042678827645, 0xdb85beb373fd4376ULL},
      {459838, 329.19042678827645, 0xdb85beb373fd4376ULL},
      {460956, 337.76887811601682, 0xf167177a821de2b4ULL},
      {460956, 337.76887811601682, 0xf167177a821de2b4ULL},
      {467186, 339.86141526548886, 0x231e48d0a6d87b06ULL},
      {469328, 341.89623323104217, 0x040131cbf217d249ULL},
      {471426, 344.64024115938321, 0xbfd8eae88a51def8ULL},
      {482832, 345.23084639830938, 0x43222ca826df8f75ULL},
      {485066, 349.60809601774929, 0xb32a362e5b8dce0cULL},
      {497232, 350.35476268441596, 0x733de6c29ea79c32ULL},
      {501830, 353.17283282119735, 0x93eb9b4ac53c9f5fULL},
      {501830, 353.17283282119735, 0x93eb9b4ac53c9f5fULL},
  };
  expect_pinned(fx.problem, cfg, {}, 12, front, count_ties);
  EXPECT_EQ(generations_with_ties, 2U * 12U);
}

TEST(Nsga2Pinned, OrderRepair) {
  const PinnedFixture fx;
  Nsga2Config cfg = pinned_config(0.3);
  cfg.repair_order_permutation = true;
  const std::vector<PinnedMember> front = {
      {446476, 328.8422848056469, 0x4bf51c3d224e8d82ULL},
      {448868, 336.0036736605278, 0x69397182fad53cd2ULL},
      {462988, 342.85662498627545, 0x5cdeabd2eeb03c65ULL},
      {487094, 344.09414982753748, 0xf86f6992586e9ea3ULL},
      {489254, 346.31140354065366, 0xa759aaf68e25ebc0ULL},
      {499562, 348.16478693247939, 0x5e9dbf64cbacbbc4ULL},
      {529056, 348.46372165061945, 0x58a6b722c794d6ceULL},
  };
  expect_pinned(fx.problem, cfg, {}, 12, front);
}

TEST(Nsga2Pinned, DvfsWithPstatelessSeed) {
  // The greedy seed carries no P-state genes while every random genome
  // does, so a child's P-state draw depends on which parent it cloned.
  const PinnedFixture fx;
  EvaluatorOptions options;
  options.dvfs = make_cubic_dvfs({0.6, 0.8, 1.0});
  const UtilityEnergyProblem dvfs(fx.system, fx.trace, std::move(options));
  const Allocation seed =
      make_seed(SeedHeuristic::kMinEnergy, fx.system, fx.trace);
  ASSERT_TRUE(seed.pstate.empty());
  const std::vector<PinnedMember> front = {
      {250757.36000000002, 142.09014403155473, 0x8bede778a7c84ce8ULL},
      {254914.96000000002, 292.31887087835025, 0x5f6d9c8a8e7bcb96ULL},
      {266397.35999999999, 299.2891466515764, 0x18cfe6948b70dfd6ULL},
      {268759.92000000004, 320.10729961628334, 0x8db3910e6186edcaULL},
      {270711.92000000004, 321.21864695307244, 0x9d958f7818feb6f9ULL},
      {276616.64000000001, 325.65353414519728, 0xca844e3dab1e79abULL},
      {279793.60000000003, 338.84240636242441, 0xf47312b7b8402bb9ULL},
      {453868, 344.08362378287939, 0x004b90a0ecd3ad16ULL},
      {459944, 347.30042994754541, 0x88ea662486855359ULL},
      {460200, 347.3537632808787, 0xe2f660d17608753dULL},
      {474926, 349.65576003856023, 0xb362a0570c760b36ULL},
      {475954, 353.13666505533439, 0xd93618a12528b8b9ULL},
  };
  expect_pinned(dvfs, pinned_config(0.5), {seed}, 12, front);
}

TEST(Nsga2Pinned, MakespanEnergy) {
  // The predecessor problem reads makespan as utility = -makespan.
  const PinnedFixture fx;
  const MakespanEnergyProblem makespan(fx.system, fx.trace);
  const std::vector<PinnedMember> front = {
      {476010, -1453.6676230970415, 0x0c05125e96e5bcd7ULL},
      {476196, -1274.7991693402162, 0x6aefa2b1b4a74479ULL},
      {479882, -1193.6669841093671, 0xc6288bf4a1bd9a12ULL},
      {482268, -1172.934511930976, 0xffcc9ffadd26cbfcULL},
      {487854, -1146.934511930976, 0x2262d6c97ca1d373ULL},
      {495176, -1124.6669841093671, 0x7a1c0b7becd6c1b2ULL},
      {517026, -1090.2044155490698, 0x6eee1abd8377c04cULL},
      {531400, -1062.7954355700001, 0x0df34fd1dd218436ULL},
  };
  expect_pinned(makespan, pinned_config(0.3), {}, 12, front);
}

TEST(Nsga2Pinned, PopulationOfTwo) {
  // With two members the second parent pick repeats the first half the
  // time, exercising the re-pick loop.
  const PinnedFixture fx;
  Nsga2Config cfg = pinned_config(0.3);
  cfg.population_size = 2;
  const std::vector<PinnedMember> front = {
      {513214, 333.627342671831, 0x0fbd7f677d801bc5ULL},
      {539210, 345.28923598766158, 0x98ea3c26fde9eb14ULL},
  };
  expect_pinned(fx.problem, cfg, {}, 12, front);
}

}  // namespace
}  // namespace eus
