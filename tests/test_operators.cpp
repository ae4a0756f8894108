#include "core/operators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "data/historical.hpp"
#include "tuf/builder.hpp"
#include "workload/generator.hpp"

namespace eus {
namespace {

TufClassLibrary linear_library() {
  std::vector<TufClass> classes;
  classes.push_back({"l", 1.0, make_linear_decay_tuf(10.0, 0.0, 1000.0)});
  return TufClassLibrary(std::move(classes));
}

struct Fixture {
  SystemModel system = historical_system();
  Trace trace;
  UtilityEnergyProblem problem;

  explicit Fixture(std::size_t n = 40)
      : trace(make_trace(system, n)), problem(system, trace) {}

  static Trace make_trace(const SystemModel& sys, std::size_t n) {
    Rng rng(77);
    TraceConfig cfg;
    cfg.num_tasks = n;
    cfg.window_seconds = 900.0;
    return generate_trace(sys, linear_library(), cfg, rng);
  }
};

bool is_permutation_0_to_n(const std::vector<int>& order) {
  std::set<int> s(order.begin(), order.end());
  return s.size() == order.size() && *s.begin() == 0 &&
         *s.rbegin() == static_cast<int>(order.size()) - 1;
}

TEST(RandomAllocation, ShapeAndEligibility) {
  const Fixture fx;
  Rng rng(1);
  const Allocation a = random_allocation(fx.problem, rng);
  EXPECT_EQ(a.size(), fx.trace.size());
  EXPECT_TRUE(a.pstate.empty());  // no DVFS
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(fx.system.eligible(fx.trace.tasks()[i].type,
                                   static_cast<std::size_t>(a.machine[i])));
  }
}

TEST(RandomAllocation, OrderIsPermutation) {
  const Fixture fx;
  Rng rng(2);
  const Allocation a = random_allocation(fx.problem, rng);
  EXPECT_TRUE(is_permutation_0_to_n(a.order));
}

TEST(RandomAllocation, DifferentDrawsDiffer) {
  const Fixture fx;
  Rng rng(3);
  const Allocation a = random_allocation(fx.problem, rng);
  const Allocation b = random_allocation(fx.problem, rng);
  EXPECT_NE(a, b);
}

TEST(RandomAllocation, UsesAllMachinesEventually) {
  const Fixture fx(200);
  Rng rng(4);
  const Allocation a = random_allocation(fx.problem, rng);
  std::set<int> used(a.machine.begin(), a.machine.end());
  EXPECT_EQ(used.size(), fx.system.num_machines());
}

TEST(RandomAllocation, PstatesPopulatedUnderDvfs) {
  const SystemModel sys = historical_system();
  const Trace trace = Fixture::make_trace(sys, 30);
  EvaluatorOptions opts;
  opts.dvfs = make_cubic_dvfs({0.6, 0.8, 1.0});
  const UtilityEnergyProblem problem(sys, trace, opts);
  Rng rng(5);
  const Allocation a = random_allocation(problem, rng);
  ASSERT_EQ(a.pstate.size(), trace.size());
  for (const int p : a.pstate) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 3);
  }
}

TEST(Crossover, SwapsASegment) {
  Allocation a = make_trivial_allocation(10);
  Allocation b = make_trivial_allocation(10);
  std::fill(a.machine.begin(), a.machine.end(), 1);
  std::fill(b.machine.begin(), b.machine.end(), 2);
  for (std::size_t i = 0; i < 10; ++i) b.order[i] = 100 + static_cast<int>(i);

  Rng rng(6);
  crossover(a, b, rng);

  // Some contiguous segment swapped: a has 2s exactly where b has 1s.
  std::size_t swapped = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    if (a.machine[i] == 2) {
      EXPECT_EQ(b.machine[i], 1);
      EXPECT_GE(a.order[i], 100);  // order came along with the machine
      ++swapped;
    } else {
      EXPECT_EQ(b.machine[i], 2);
      EXPECT_LT(a.order[i], 100);
    }
  }
  EXPECT_GE(swapped, 1U);  // segment [i,j] is never empty
  // Swapped region is contiguous.
  const auto first = std::find(a.machine.begin(), a.machine.end(), 2);
  const auto last = std::find(a.machine.rbegin(), a.machine.rend(), 2);
  const auto begin_idx = static_cast<std::size_t>(first - a.machine.begin());
  const auto end_idx =
      a.machine.size() - 1 - static_cast<std::size_t>(last - a.machine.rbegin());
  for (std::size_t i = begin_idx; i <= end_idx; ++i) {
    EXPECT_EQ(a.machine[i], 2);
  }
}

TEST(Crossover, PreservesGeneMultiset) {
  // Across both chromosomes, each position's (machine, order) pair multiset
  // is invariant.
  const Fixture fx;
  Rng rng(7);
  Allocation a = random_allocation(fx.problem, rng);
  Allocation b = random_allocation(fx.problem, rng);
  const Allocation a0 = a, b0 = b;
  crossover(a, b, rng);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool kept = a.machine[i] == a0.machine[i] &&
                      a.order[i] == a0.order[i] &&
                      b.machine[i] == b0.machine[i] &&
                      b.order[i] == b0.order[i];
    const bool swapped = a.machine[i] == b0.machine[i] &&
                         a.order[i] == b0.order[i] &&
                         b.machine[i] == a0.machine[i] &&
                         b.order[i] == a0.order[i];
    EXPECT_TRUE(kept || swapped) << "gene " << i;
  }
}

TEST(Crossover, SizeMismatchThrows) {
  Allocation a = make_trivial_allocation(5);
  Allocation b = make_trivial_allocation(6);
  Rng rng(8);
  EXPECT_THROW(crossover(a, b, rng), std::invalid_argument);
}

TEST(Crossover, EmptyChromosomesNoop) {
  Allocation a, b;
  Rng rng(9);
  EXPECT_NO_THROW(crossover(a, b, rng));
}

TEST(Crossover, EligibilityPreserved) {
  // Genes travel with their position (same task), so swapping keeps
  // machine eligibility automatically.
  const Fixture fx;
  Rng rng(10);
  Allocation a = random_allocation(fx.problem, rng);
  Allocation b = random_allocation(fx.problem, rng);
  crossover(a, b, rng);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(fx.system.eligible(fx.trace.tasks()[i].type,
                                   static_cast<std::size_t>(a.machine[i])));
    EXPECT_TRUE(fx.system.eligible(fx.trace.tasks()[i].type,
                                   static_cast<std::size_t>(b.machine[i])));
  }
}

TEST(Mutate, ChangesAtMostOneMachineAndSwapsOrders) {
  const Fixture fx;
  Rng rng(11);
  Allocation a = random_allocation(fx.problem, rng);
  const Allocation before = a;
  mutate(a, fx.problem, rng);

  std::size_t machine_changes = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.machine[i] != before.machine[i]) ++machine_changes;
  }
  EXPECT_LE(machine_changes, 1U);

  // Order multiset unchanged (a swap).
  std::multiset<int> ma(a.order.begin(), a.order.end());
  std::multiset<int> mb(before.order.begin(), before.order.end());
  EXPECT_EQ(ma, mb);
}

TEST(Mutate, KeepsEligibility) {
  const Fixture fx;
  Rng rng(12);
  Allocation a = random_allocation(fx.problem, rng);
  for (int round = 0; round < 200; ++round) {
    mutate(a, fx.problem, rng);
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(fx.system.eligible(fx.trace.tasks()[i].type,
                                   static_cast<std::size_t>(a.machine[i])));
  }
}

TEST(Mutate, EmptyAllocationNoop) {
  const Fixture fx;
  Allocation empty;
  Rng rng(13);
  // Size-0 genome paired with a sized problem would be invalid to evaluate,
  // but mutate() itself must not crash.
  EXPECT_NO_THROW(mutate(empty, fx.problem, rng));
}

/// Whether two generators are in the same state (same next outputs).
bool same_stream(Rng a, Rng b) {
  for (int k = 0; k < 4; ++k) {
    if (a() != b()) return false;
  }
  return true;
}

UtilityEnergyProblem dvfs_problem(const Fixture& fx) {
  EvaluatorOptions opts;
  opts.dvfs = make_cubic_dvfs({0.6, 0.8, 1.0});
  return UtilityEnergyProblem(fx.system, fx.trace, opts);
}

TEST(OperatorSplit, CrossoverIsDrawThenApply) {
  const Fixture fx;
  Rng genomes(21);
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const Allocation a = random_allocation(fx.problem, genomes);
    const Allocation b = random_allocation(fx.problem, genomes);
    Allocation whole_a = a;
    Allocation whole_b = b;
    Rng whole_rng(seed);
    crossover(whole_a, whole_b, whole_rng);

    Allocation split_a = a;
    Allocation split_b = b;
    Rng split_rng(seed);
    const CrossoverSegment drawn = draw_crossover(a.size(), split_rng);
    apply_crossover(split_a, split_b, drawn);

    EXPECT_EQ(split_a, whole_a);
    EXPECT_EQ(split_b, whole_b);
    EXPECT_TRUE(same_stream(split_rng, whole_rng));
    EXPECT_TRUE(drawn.swapped);
    EXPECT_LE(drawn.lo, drawn.hi);
    EXPECT_LT(drawn.hi, a.size());
  }
}

TEST(OperatorSplit, MutateIsDrawThenApply) {
  const Fixture fx;
  const UtilityEnergyProblem dvfs = dvfs_problem(fx);
  const BiObjectiveProblem* const problems[] = {&fx.problem, &dvfs};
  for (const BiObjectiveProblem* problem : problems) {
    Rng genomes(22);
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      const Allocation a = random_allocation(*problem, genomes);
      Allocation whole = a;
      Rng whole_rng(seed);
      std::vector<std::uint32_t> touched;
      mutate(whole, *problem, whole_rng, &touched);

      Allocation split = a;
      Rng split_rng(seed);
      const MutationDraw drawn =
          draw_mutation(*problem, a.size(), !a.pstate.empty(), split_rng);
      apply_mutation(split, drawn);

      EXPECT_EQ(split, whole);
      EXPECT_TRUE(same_stream(split_rng, whole_rng));
      EXPECT_EQ(touched,
                (std::vector<std::uint32_t>{drawn.gene, drawn.partner}));
      EXPECT_EQ(drawn.pstate >= 0, !a.pstate.empty());
    }
  }
}

TEST(OperatorSplit, PstateDrawFollowsClonedParent) {
  // A pstate-less parent (a greedy seed) crossed with a DVFS genome: each
  // child keeps its own cloned parent's P-state presence, so only the
  // second child's mutation draws a P-state.  Drawing everything up front
  // from the parents must match operating on the children in turn.
  const Fixture fx;
  const UtilityEnergyProblem dvfs = dvfs_problem(fx);
  Rng genomes(23);
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Allocation plain = random_allocation(dvfs, genomes);
    plain.pstate.clear();
    const Allocation clocked = random_allocation(dvfs, genomes);

    Allocation whole_a = plain;
    Allocation whole_b = clocked;
    Rng whole_rng(seed);
    crossover(whole_a, whole_b, whole_rng);
    mutate(whole_a, dvfs, whole_rng);
    mutate(whole_b, dvfs, whole_rng);

    Rng split_rng(seed);
    const CrossoverSegment segment = draw_crossover(plain.size(), split_rng);
    const MutationDraw draw_a =
        draw_mutation(dvfs, plain.size(), !plain.pstate.empty(), split_rng);
    const MutationDraw draw_b =
        draw_mutation(dvfs, clocked.size(), !clocked.pstate.empty(), split_rng);
    Allocation split_a = plain;
    Allocation split_b = clocked;
    apply_crossover(split_a, split_b, segment);
    apply_mutation(split_a, draw_a);
    apply_mutation(split_b, draw_b);

    EXPECT_EQ(draw_a.pstate, -1);
    EXPECT_GE(draw_b.pstate, 0);
    EXPECT_TRUE(split_a.pstate.empty());
    EXPECT_EQ(split_a, whole_a);
    EXPECT_EQ(split_b, whole_b);
    EXPECT_TRUE(same_stream(split_rng, whole_rng));
  }
}

TEST(OperatorSplit, EmptyGenomeDrawsNothing) {
  const Fixture fx;
  Rng rng(24);
  const Rng before = rng;
  EXPECT_FALSE(draw_crossover(0, rng).swapped);
  EXPECT_FALSE(draw_mutation(fx.problem, 0, false, rng).drawn);
  EXPECT_TRUE(same_stream(rng, before));

  Allocation a;
  Allocation b;
  EXPECT_NO_THROW(apply_crossover(a, b, CrossoverSegment{}));
  EXPECT_NO_THROW(apply_mutation(a, MutationDraw{}));
  EXPECT_TRUE(a.machine.empty());
}

TEST(OperatorSplit, ApplyMutationRejectsPstateMismatch) {
  const Fixture fx;
  const UtilityEnergyProblem dvfs = dvfs_problem(fx);
  Rng rng(25);
  Allocation clocked = random_allocation(dvfs, rng);
  Allocation plain = clocked;
  plain.pstate.clear();
  const MutationDraw with_pstate =
      draw_mutation(dvfs, clocked.size(), true, rng);
  const MutationDraw without_pstate =
      draw_mutation(dvfs, clocked.size(), false, rng);
  EXPECT_THROW(apply_mutation(plain, with_pstate), std::invalid_argument);
  EXPECT_THROW(apply_mutation(clocked, without_pstate), std::invalid_argument);
}

TEST(RepairOrder, ProducesPermutationPreservingSequence) {
  Allocation a = make_trivial_allocation(5);
  a.order = {10, 3, 10, -2, 7};  // duplicates + negatives
  repair_order_permutation(a);
  EXPECT_TRUE(is_permutation_0_to_n(a.order));
  // Sequence was (by (order, idx)): task3(-2), task1(3), task4(7),
  // task0(10), task2(10).
  EXPECT_EQ(a.order[3], 0);
  EXPECT_EQ(a.order[1], 1);
  EXPECT_EQ(a.order[4], 2);
  EXPECT_EQ(a.order[0], 3);
  EXPECT_EQ(a.order[2], 4);
}

TEST(RepairOrder, IdempotentOnPermutation) {
  Allocation a = make_trivial_allocation(8);
  a.order = {3, 1, 0, 2, 7, 6, 5, 4};
  const Allocation before = a;
  repair_order_permutation(a);
  EXPECT_EQ(a.order, before.order);
}

TEST(RepairOrder, EmptyNoop) {
  Allocation a;
  EXPECT_NO_THROW(repair_order_permutation(a));
}

}  // namespace
}  // namespace eus
