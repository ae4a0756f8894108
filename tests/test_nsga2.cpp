#include "core/nsga2.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "data/historical.hpp"
#include "heuristics/seeds.hpp"
#include "pareto/archive.hpp"
#include "pareto/front.hpp"
#include "pareto/metrics.hpp"
#include "tuf/builder.hpp"
#include "workload/generator.hpp"

namespace eus {
namespace {

TufClassLibrary mixed_library() {
  std::vector<TufClass> classes;
  classes.push_back({"l", 2.0, make_linear_decay_tuf(10.0, 0.0, 1500.0)});
  classes.push_back({"h", 1.0, make_hard_deadline_tuf(20.0, 1200.0)});
  return TufClassLibrary(std::move(classes));
}

struct Fixture {
  SystemModel system = historical_system();
  Trace trace;
  UtilityEnergyProblem problem;

  explicit Fixture(std::size_t n = 50, std::uint64_t seed = 5)
      : trace(make_trace(system, n, seed)), problem(system, trace) {}

  static Trace make_trace(const SystemModel& sys, std::size_t n,
                          std::uint64_t seed) {
    Rng rng(seed);
    TraceConfig cfg;
    cfg.num_tasks = n;
    cfg.window_seconds = 900.0;
    return generate_trace(sys, mixed_library(), cfg, rng);
  }
};

Nsga2Config small_config(std::uint64_t seed = 9) {
  Nsga2Config cfg;
  cfg.population_size = 20;
  cfg.mutation_probability = 0.3;
  cfg.seed = seed;
  return cfg;
}

TEST(Nsga2, RejectsOddPopulation) {
  const Fixture fx;
  Nsga2Config cfg = small_config();
  cfg.population_size = 21;
  EXPECT_THROW(Nsga2(fx.problem, cfg), std::invalid_argument);
}

TEST(Nsga2, RejectsBadMutationProbability) {
  const Fixture fx;
  Nsga2Config cfg = small_config();
  cfg.mutation_probability = 1.5;
  EXPECT_THROW(Nsga2(fx.problem, cfg), std::invalid_argument);
}

TEST(Nsga2, IterateBeforeInitializeThrows) {
  const Fixture fx;
  Nsga2 ga(fx.problem, small_config());
  EXPECT_THROW(ga.iterate(1), std::logic_error);
}

TEST(Nsga2, DoubleInitializeThrows) {
  const Fixture fx;
  Nsga2 ga(fx.problem, small_config());
  ga.initialize({});
  EXPECT_THROW(ga.initialize({}), std::logic_error);
}

TEST(Nsga2, RejectsTooManySeeds) {
  const Fixture fx;
  Nsga2Config cfg = small_config();
  cfg.population_size = 2;
  Nsga2 ga(fx.problem, cfg);
  const Allocation seed = min_energy_allocation(fx.system, fx.trace);
  EXPECT_THROW(ga.initialize({seed, seed, seed}), std::invalid_argument);
}

TEST(Nsga2, RejectsWrongSizeSeed) {
  const Fixture fx;
  Nsga2 ga(fx.problem, small_config());
  EXPECT_THROW(ga.initialize({make_trivial_allocation(3)}),
               std::invalid_argument);
}

TEST(Nsga2, RefusedWarmStartCountsNoWarmSeeds) {
  const Fixture fx;
  MetricsRegistry metrics;
  Nsga2Config cfg = small_config();
  cfg.metrics = &metrics;
  Nsga2 ga(fx.problem, cfg);
  EXPECT_THROW(ga.initialize_warm({}, {make_trivial_allocation(3)}),
               std::invalid_argument);
  EXPECT_EQ(metrics.counter("nsga2.warm_seeds").value(), 0U);
}

TEST(Nsga2, InitializePopulationSizeAndAnnotation) {
  const Fixture fx;
  Nsga2 ga(fx.problem, small_config());
  ga.initialize({min_energy_allocation(fx.system, fx.trace)});
  EXPECT_EQ(ga.population().size(), 20U);
  EXPECT_EQ(ga.evaluations(), 20U);
  EXPECT_FALSE(ga.front().empty());
}

TEST(Nsga2, GenerationCounterAdvances) {
  const Fixture fx;
  Nsga2 ga(fx.problem, small_config());
  ga.initialize({});
  ga.iterate(5);
  EXPECT_EQ(ga.generation(), 5U);
  ga.iterate(3);
  EXPECT_EQ(ga.generation(), 8U);
  // Each generation evaluates N offspring.
  EXPECT_EQ(ga.evaluations(), 20U + 8U * 20U);
}

TEST(Nsga2, PopulationSizeInvariantAcrossGenerations) {
  const Fixture fx;
  Nsga2 ga(fx.problem, small_config());
  ga.initialize({});
  for (int g = 0; g < 10; ++g) {
    ga.iterate(1);
    EXPECT_EQ(ga.population().size(), 20U);
  }
}

TEST(Nsga2, FrontIsMutuallyNondominated) {
  const Fixture fx;
  Nsga2 ga(fx.problem, small_config());
  ga.initialize({});
  ga.iterate(30);
  EXPECT_TRUE(is_mutually_nondominated(ga.front_points()));
}

TEST(Nsga2, FrontSortedByEnergy) {
  const Fixture fx;
  Nsga2 ga(fx.problem, small_config());
  ga.initialize({});
  ga.iterate(20);
  const auto pts = ga.front_points();
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].energy, pts[i - 1].energy);
  }
}

TEST(Nsga2, FrontOrderMatchesParetoSweepOnEnergyTies) {
  // Regression: Nsga2::front() used to break equal-energy ties by
  // *ascending* utility — worst first, the opposite of the sweep order in
  // pareto/front.cpp.  The comparator is shared now: descending utility.
  EXPECT_TRUE(front_order_less({5.0, 3.0}, {5.0, 1.0}));
  EXPECT_FALSE(front_order_less({5.0, 1.0}, {5.0, 3.0}));
  EXPECT_TRUE(front_order_less({4.0, 1.0}, {5.0, 9.0}));
  EXPECT_FALSE(front_order_less({5.0, 3.0}, {5.0, 3.0}));

  // End to end, the algorithm's front follows the canonical order.
  const Fixture fx;
  Nsga2 ga(fx.problem, small_config());
  ga.initialize({});
  ga.iterate(15);
  const auto front = ga.front();
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_FALSE(
        front_order_less(front[i].objectives, front[i - 1].objectives));
  }
}

TEST(Nsga2, CrowdedTournamentPrefersRankThenCrowding) {
  std::vector<Individual> pop(2);
  Rng rng(7);
  pop[0].rank = 1;
  pop[1].rank = 0;
  // The rank-0 individual wins from either draw position.
  EXPECT_EQ(crowded_tournament_winner(pop, 0, 1, rng), 1U);
  EXPECT_EQ(crowded_tournament_winner(pop, 1, 0, rng), 1U);
  pop[0].rank = pop[1].rank = 0;
  pop[0].crowding = 2.0;
  pop[1].crowding = 3.0;
  EXPECT_EQ(crowded_tournament_winner(pop, 0, 1, rng), 1U);
  EXPECT_EQ(crowded_tournament_winner(pop, 1, 0, rng), 1U);
}

TEST(Nsga2, CrowdedTournamentBreaksExactCrowdingTiesFairly) {
  // Regression: an exact crowding tie resolved with >=, so the
  // first-drawn candidate always won — including the common case where
  // both draws land in the same (rank, crowding) class.  The tie is now a
  // coin flip from the algorithm's RNG stream.
  std::vector<Individual> pop(2);
  pop[0].rank = pop[1].rank = 0;
  pop[0].crowding = pop[1].crowding = 1.5;
  Rng rng(123);
  const int trials = 2000;
  int first = 0;
  for (int t = 0; t < trials; ++t) {
    if (crowded_tournament_winner(pop, 0, 1, rng) == 0) ++first;
  }
  EXPECT_GT(first, 2 * trials / 5);  // both sides must win ~half the time
  EXPECT_LT(first, 3 * trials / 5);
}

TEST(Nsga2, ElitismNeverLosesGround) {
  // Hypervolume against a fixed reference must be non-decreasing: the
  // elitist merge keeps every rank-0 solution unless something dominates
  // or crowds it out, and either way the front can only improve.
  const Fixture fx;
  Nsga2 ga(fx.problem, small_config());
  ga.initialize({});
  const EUPoint ref{1e9, -1.0};
  double previous = hypervolume(ga.front_points(), ref);
  for (int g = 0; g < 25; ++g) {
    ga.iterate(1);
    const double current = hypervolume(ga.front_points(), ref);
    EXPECT_GE(current, previous - 1e-6);
    previous = current;
  }
}

TEST(Nsga2, ImprovesOverRandomInitialization) {
  const Fixture fx(60);
  Nsga2 ga(fx.problem, small_config());
  ga.initialize({});
  const auto initial = ga.front_points();
  ga.iterate(150);
  const auto evolved = ga.front_points();
  const EUPoint ref = enclosing_reference({initial, evolved});
  EXPECT_GT(hypervolume(evolved, ref), hypervolume(initial, ref));
}

TEST(Nsga2, DeterministicForSeed) {
  const Fixture fx;
  Nsga2 a(fx.problem, small_config(42));
  Nsga2 b(fx.problem, small_config(42));
  a.initialize({});
  b.initialize({});
  a.iterate(10);
  b.iterate(10);
  const auto fa = a.front_points();
  const auto fb = b.front_points();
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) EXPECT_EQ(fa[i], fb[i]);
}

TEST(Nsga2, DifferentSeedsDiverge) {
  const Fixture fx;
  Nsga2 a(fx.problem, small_config(1));
  Nsga2 b(fx.problem, small_config(2));
  a.initialize({});
  b.initialize({});
  a.iterate(5);
  b.iterate(5);
  EXPECT_NE(a.front_points(), b.front_points());
}

TEST(Nsga2, ThreadedEvaluationMatchesSerial) {
  const Fixture fx;
  Nsga2Config serial = small_config(7);
  Nsga2Config threaded = small_config(7);
  threaded.threads = 4;
  Nsga2 a(fx.problem, serial);
  Nsga2 b(fx.problem, threaded);
  a.initialize({});
  b.initialize({});
  a.iterate(10);
  b.iterate(10);
  EXPECT_EQ(a.front_points(), b.front_points());
}

TEST(Nsga2, SeededPopulationContainsSeedObjectives) {
  const Fixture fx;
  const Allocation seed = min_energy_allocation(fx.system, fx.trace);
  const EUPoint seed_obj = fx.problem.evaluate(seed);
  Nsga2 ga(fx.problem, small_config());
  ga.initialize({seed});
  bool found = false;
  for (const auto& ind : ga.population()) {
    if (ind.objectives == seed_obj) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Nsga2, MinEnergySeedAnchorsEnergyFloor) {
  // Min-energy is the provable global energy optimum; elitism must keep a
  // solution at that energy forever.
  const Fixture fx;
  const Allocation seed = min_energy_allocation(fx.system, fx.trace);
  const double floor = fx.problem.evaluate(seed).energy;
  Nsga2 ga(fx.problem, small_config());
  ga.initialize({seed});
  ga.iterate(40);
  EXPECT_NEAR(ga.front_points().front().energy, floor, 1e-9);
}

TEST(Nsga2, RepairedEncodingStillWorks) {
  const Fixture fx;
  Nsga2Config cfg = small_config();
  cfg.repair_order_permutation = true;
  Nsga2 ga(fx.problem, cfg);
  ga.initialize({});
  ga.iterate(20);
  EXPECT_FALSE(ga.front_points().empty());
  EXPECT_TRUE(is_mutually_nondominated(ga.front_points()));
}

TEST(Nsga2, CrowdingDisabledStillConverges) {
  const Fixture fx;
  Nsga2Config cfg = small_config();
  cfg.use_crowding = false;
  Nsga2 ga(fx.problem, cfg);
  ga.initialize({});
  ga.iterate(20);
  EXPECT_FALSE(ga.front_points().empty());
}

TEST(Nsga2, RanksAnnotatedConsistently) {
  const Fixture fx;
  Nsga2 ga(fx.problem, small_config());
  ga.initialize({});
  ga.iterate(10);
  for (const auto& ind : ga.population()) {
    if (ind.rank == 0) {
      // No member of the population may dominate a rank-0 member.
      for (const auto& other : ga.population()) {
        EXPECT_FALSE(dominates(other.objectives, ind.objectives));
      }
    }
  }
}

TEST(Nsga2, CrowdedTournamentSelectionConverges) {
  const Fixture fx;
  Nsga2Config cfg = small_config();
  cfg.selection = SelectionMode::kCrowdedTournament;
  Nsga2 ga(fx.problem, cfg);
  ga.initialize({});
  const auto initial = ga.front_points();
  ga.iterate(60);
  const auto evolved = ga.front_points();
  EXPECT_TRUE(is_mutually_nondominated(evolved));
  const EUPoint ref = enclosing_reference({initial, evolved});
  EXPECT_GE(hypervolume(evolved, ref), hypervolume(initial, ref));
}

TEST(Nsga2, SelectionModesProduceDifferentTrajectories) {
  const Fixture fx;
  Nsga2Config uniform = small_config(21);
  Nsga2Config tournament = small_config(21);
  tournament.selection = SelectionMode::kCrowdedTournament;
  Nsga2 a(fx.problem, uniform);
  Nsga2 b(fx.problem, tournament);
  a.initialize({});
  b.initialize({});
  a.iterate(10);
  b.iterate(10);
  EXPECT_NE(a.front_points(), b.front_points());
}

TEST(Nsga2, ObserverFiresEveryGeneration) {
  const Fixture fx;
  Nsga2 ga(fx.problem, small_config());
  ga.initialize({});
  std::vector<std::size_t> seen;
  ga.set_observer([&](std::size_t gen, const std::vector<Individual>& pop) {
    seen.push_back(gen);
    EXPECT_EQ(pop.size(), 20U);
  });
  ga.iterate(5);
  EXPECT_EQ(seen, (std::vector<std::size_t>{1, 2, 3, 4, 5}));
  ga.set_observer(nullptr);
  ga.iterate(2);
  EXPECT_EQ(seen.size(), 5U);
}

TEST(Nsga2, ObserverSeesMonotoneFrontViaArchive) {
  const Fixture fx;
  Nsga2 ga(fx.problem, small_config());
  ga.initialize({});
  ParetoArchive archive;
  ga.set_observer([&](std::size_t, const std::vector<Individual>& pop) {
    for (const auto& ind : pop) {
      if (ind.rank == 0) archive.insert(ind.objectives);
    }
  });
  ga.iterate(20);
  // The all-time archive must cover the final population front.
  for (const auto& p : ga.front_points()) {
    EXPECT_TRUE(archive.covers(p));
  }
  EXPECT_TRUE(is_mutually_nondominated(archive.points()));
}

TEST(Nsga2, MakespanProblemDrivesMakespanDown) {
  const Fixture fx(60);
  const MakespanEnergyProblem problem(fx.system, fx.trace);
  Nsga2 ga(problem, small_config());
  ga.initialize({});
  const double initial_best = ga.front_points().back().utility;  // -makespan
  ga.iterate(120);
  const double final_best = ga.front_points().back().utility;
  EXPECT_GE(final_best, initial_best);
  // Sanity: utilities are negative makespans.
  for (const auto& p : ga.front_points()) EXPECT_LT(p.utility, 0.0);
}

}  // namespace
}  // namespace eus
