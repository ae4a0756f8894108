// Randomized differential suite for the incremental delta-evaluator: the
// full simulator is the oracle, and every delta-path result — across option
// modes, fallback flavors, sort paths, and execution modes — must match it
// bit for bit (see docs/evaluator.md for the contract).  The min-min
// per-type-heap collapse is held to the same standard against a textbook
// O(T^2 M) reference.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/nsga2.hpp"
#include "core/problem.hpp"
#include "heuristics/seeds.hpp"
#include "sched/dvfs.hpp"
#include "sched/evaluator.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "workload/scenarios.hpp"

namespace eus {
namespace {

void expect_bit_identical(const Evaluation& a, const Evaluation& b) {
  // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the contract is bit-identity, not
  // closeness.  (No NaNs are produced, so == is exact equality.)
  EXPECT_EQ(a.utility, b.utility);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.idle_energy, b.idle_energy);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.dropped, b.dropped);
}

void expect_states_equal(const EvalState& a, const EvalState& b) {
  ASSERT_EQ(a.machines.size(), b.machines.size());
  for (std::size_t m = 0; m < a.machines.size(); ++m) {
    EXPECT_EQ(a.machines[m], b.machines[m]) << "machine " << m;
  }
}

Allocation random_valid_allocation(const SystemModel& sys,
                                   const Trace& trace, Rng& rng,
                                   std::size_t num_pstates) {
  const std::size_t n = trace.size();
  Allocation a;
  a.machine.resize(n);
  a.order.resize(n);
  if (num_pstates > 0) a.pstate.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& eligible = sys.eligible_machines(trace.tasks()[i].type);
    a.machine[i] = eligible[rng.below(eligible.size())];
    a.order[i] = static_cast<int>(rng.below(n));
    if (num_pstates > 0) {
      a.pstate[i] = static_cast<int>(rng.below(num_pstates));
    }
  }
  return a;
}

/// Mutates `genes` random genes of a copy of `parent`, returning the child
/// and appending every edited index to `touched` — plus the occasional
/// listed-but-unchanged gene and duplicate, both of which the contract
/// explicitly allows.
Allocation mutate_genes(const Allocation& parent, const SystemModel& sys,
                        const Trace& trace, Rng& rng, std::size_t genes,
                        std::size_t num_pstates,
                        std::vector<std::uint32_t>& touched) {
  Allocation child = parent;
  const std::size_t n = parent.machine.size();
  for (std::size_t k = 0; k < genes; ++k) {
    const auto g = static_cast<std::uint32_t>(rng.below(n));
    switch (rng.below(num_pstates > 0 ? 4 : 3)) {
      case 0: {
        const auto& eligible =
            sys.eligible_machines(trace.tasks()[g].type);
        child.machine[g] = eligible[rng.below(eligible.size())];
        break;
      }
      case 1:
        child.order[g] = static_cast<int>(rng.below(n));
        break;
      case 2:
        // Listed but unchanged: touched may be a superset of the diff.
        break;
      default:
        child.pstate[g] = static_cast<int>(rng.below(num_pstates));
        break;
    }
    touched.push_back(g);
    if (rng.chance(0.2)) touched.push_back(g);  // duplicates are allowed
  }
  return child;
}

struct OptionVariant {
  std::string name;
  EvaluatorOptions options;
};

std::vector<OptionVariant> option_variants(const SystemModel& sys) {
  std::vector<OptionVariant> variants;
  variants.push_back({"plain", {}});

  EvaluatorOptions drop;
  drop.drop_worthless_tasks = true;
  drop.drop_threshold = 5.0;
  variants.push_back({"dropping", drop});

  EvaluatorOptions dvfs;
  dvfs.dvfs = make_cubic_dvfs({1.0, 0.8, 0.6});
  variants.push_back({"dvfs", dvfs});

  EvaluatorOptions idle;
  idle.idle_watts.resize(sys.num_machine_types());
  for (std::size_t t = 0; t < idle.idle_watts.size(); ++t) {
    idle.idle_watts[t] = 5.0 + 2.0 * static_cast<double>(t);
  }
  variants.push_back({"idle-watts", idle});

  EvaluatorOptions all = drop;
  all.dvfs = dvfs.dvfs;
  all.idle_watts = idle.idle_watts;
  variants.push_back({"all-options", all});
  return variants;
}

std::size_t pstates_of(const EvaluatorOptions& options) {
  return options.dvfs ? options.dvfs->size() : 0;
}

TEST(EvaluatorDifferential, DeltaMatchesFullOracleAcrossOptionModes) {
  const Scenario scenario = make_dataset1(11);
  for (const OptionVariant& variant : option_variants(scenario.system)) {
    SCOPED_TRACE(variant.name);
    const Evaluator ev(scenario.system, scenario.trace, variant.options);
    const std::size_t num_pstates = pstates_of(variant.options);
    Rng rng(42);
    for (int round = 0; round < 25; ++round) {
      const Allocation parent = random_valid_allocation(
          scenario.system, scenario.trace, rng, num_pstates);
      EvalState parent_state;
      ev.evaluate(parent, parent_state);

      std::vector<std::uint32_t> touched;
      const Allocation child =
          mutate_genes(parent, scenario.system, scenario.trace, rng,
                       1 + rng.below(10), num_pstates, touched);

      EvalState delta_state;
      const Evaluation delta = ev.evaluate_incremental(
          child, parent, parent_state, touched, delta_state);

      EvalState oracle_state;
      const Evaluation oracle = ev.evaluate(child, oracle_state);
      expect_bit_identical(delta, oracle);
      expect_states_equal(delta_state, oracle_state);

      // trusted_child rides the same structural-validity contract.
      EvalState trusted_state;
      const Evaluation trusted = ev.evaluate_incremental(
          child, parent, parent_state, touched, trusted_state,
          /*trusted_child=*/true);
      expect_bit_identical(trusted, oracle);
      expect_states_equal(trusted_state, oracle_state);
    }
  }
}

TEST(EvaluatorDifferential, LargeDeltaFallsBackAndStaysExact) {
  const Scenario scenario = make_dataset1(12);
  const Evaluator ev(scenario.system, scenario.trace);
  Rng rng(7);
  const Allocation parent =
      random_valid_allocation(scenario.system, scenario.trace, rng, 0);
  EvalState parent_state;
  ev.evaluate(parent, parent_state);

  // Touch ~80% of the genome: past T/2 the delta path must bail to the
  // full simulator, still filling out_state.
  std::vector<std::uint32_t> touched;
  const std::size_t n = scenario.trace.size();
  const Allocation child =
      mutate_genes(parent, scenario.system, scenario.trace, rng,
                   (n * 4) / 5, 0, touched);

  EvalState delta_state;
  const Evaluation delta = ev.evaluate_incremental(child, parent,
                                                   parent_state, touched,
                                                   delta_state);
  EvalState oracle_state;
  const Evaluation oracle = ev.evaluate(child, oracle_state);
  expect_bit_identical(delta, oracle);
  expect_states_equal(delta_state, oracle_state);
}

TEST(EvaluatorDifferential, InvalidParentStateFallsBack) {
  const Scenario scenario = make_dataset1(13);
  const Evaluator ev(scenario.system, scenario.trace);
  Rng rng(9);
  const Allocation parent =
      random_valid_allocation(scenario.system, scenario.trace, rng, 0);
  std::vector<std::uint32_t> touched;
  const Allocation child = mutate_genes(parent, scenario.system,
                                        scenario.trace, rng, 3, 0, touched);

  const EvalState empty_state;  // default-constructed == invalid
  EvalState out_state;
  const Evaluation via_fallback = ev.evaluate_incremental(
      child, parent, empty_state, touched, out_state);
  EvalState oracle_state;
  const Evaluation oracle = ev.evaluate(child, oracle_state);
  expect_bit_identical(via_fallback, oracle);
  expect_states_equal(out_state, oracle_state);
}

TEST(EvaluatorDifferential, IncrementalDisabledMatchesFullPath) {
  const Scenario scenario = make_dataset1(14);
  EvaluatorOptions options;
  options.incremental = false;  // the full-simulator oracle
  const Evaluator off(scenario.system, scenario.trace, options);
  const Evaluator on(scenario.system, scenario.trace);
  EXPECT_FALSE(off.incremental_on());

  Rng rng(21);
  const Allocation parent =
      random_valid_allocation(scenario.system, scenario.trace, rng, 0);
  EvalState parent_on;
  EvalState parent_off;
  expect_bit_identical(on.evaluate(parent, parent_on),
                       off.evaluate(parent, parent_off));

  std::vector<std::uint32_t> touched;
  const Allocation child = mutate_genes(parent, scenario.system,
                                        scenario.trace, rng, 4, 0, touched);
  EvalState state_on;
  EvalState state_off;
  const Evaluation delta_on = on.evaluate_incremental(
      child, parent, parent_on, touched, state_on);
  const Evaluation delta_off = off.evaluate_incremental(
      child, parent, parent_off, touched, state_off);
  expect_bit_identical(delta_on, delta_off);
  expect_states_equal(state_on, state_off);
}

TEST(EvaluatorDifferential, ComparisonSortPathMatchesCountingSort) {
  // Orders outside [0, T) force the comparison-sort fallback; shifting
  // every order by a constant preserves ranks, so objectives must be
  // bit-identical to the counting-sorted original.
  const Scenario scenario = make_dataset1(15);
  const Evaluator ev(scenario.system, scenario.trace);
  Rng rng(33);
  const Allocation base =
      random_valid_allocation(scenario.system, scenario.trace, rng, 0);
  EvalState base_state;
  const Evaluation counted = ev.evaluate(base, base_state);

  const auto n = static_cast<int>(scenario.trace.size());
  Allocation shifted_up = base;
  Allocation shifted_down = base;
  for (std::size_t i = 0; i < base.order.size(); ++i) {
    shifted_up.order[i] = base.order[i] + 10 * n;
    shifted_down.order[i] = base.order[i] - 10 * n;
  }
  EvalState up_state;
  EvalState down_state;
  expect_bit_identical(counted, ev.evaluate(shifted_up, up_state));
  expect_bit_identical(counted, ev.evaluate(shifted_down, down_state));
  expect_states_equal(base_state, up_state);
  expect_states_equal(base_state, down_state);
}

TEST(EvaluatorDifferential, TrustedEvaluationMatchesValidated) {
  const Scenario scenario = make_dataset1(16);
  for (const OptionVariant& variant : option_variants(scenario.system)) {
    SCOPED_TRACE(variant.name);
    const Evaluator ev(scenario.system, scenario.trace, variant.options);
    Rng rng(5);
    const Allocation a = random_valid_allocation(
        scenario.system, scenario.trace, rng, pstates_of(variant.options));
    EvalState validated;
    EvalState trusted;
    expect_bit_identical(ev.evaluate(a, validated),
                         ev.evaluate_trusted(a, trusted));
    expect_states_equal(validated, trusted);
  }
}

TEST(EvaluatorDifferential, FlattenedTufReplayMatchesTufObjects) {
  // The evaluator's span-table replay (including the precomputed
  // exponential log-ratio) must reproduce TimeUtilityFunction::value
  // exactly — the TUF objects are an independent implementation.
  const Scenario scenario = make_dataset2(17);
  const Evaluator ev(scenario.system, scenario.trace);
  Rng rng(3);
  const Allocation a =
      random_valid_allocation(scenario.system, scenario.trace, rng, 0);
  const auto [total, outcomes] = ev.detail(a);
  ASSERT_EQ(outcomes.size(), scenario.trace.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].dropped) continue;
    const double elapsed =
        outcomes[i].finish - scenario.trace.tasks()[i].arrival;
    EXPECT_EQ(outcomes[i].utility, scenario.trace.tuf_of(i).value(elapsed))
        << "task " << i;
  }
}

TEST(EvaluatorDifferential, TelemetryCountsHitsAndFallbacks) {
  const Scenario scenario = make_dataset1(18);
  MetricsRegistry metrics;
  EvaluatorOptions options;
  options.metrics = &metrics;
  const Evaluator ev(scenario.system, scenario.trace, options);
  Counter& hits = metrics.counter("evaluator.incremental.hits");
  Counter& fallbacks = metrics.counter("evaluator.incremental.fallbacks");
  Counter& machines =
      metrics.counter("evaluator.incremental.machines_resimulated");

  Rng rng(8);
  const Allocation parent =
      random_valid_allocation(scenario.system, scenario.trace, rng, 0);
  EvalState parent_state;
  ev.evaluate(parent, parent_state);

  // Small delta -> hit, with at least one machine re-simulated.
  std::vector<std::uint32_t> touched;
  const Allocation child = mutate_genes(parent, scenario.system,
                                        scenario.trace, rng, 2, 0, touched);
  EvalState out;
  ev.evaluate_incremental(child, parent, parent_state, touched, out);
  EXPECT_EQ(hits.value(), 1U);
  EXPECT_EQ(fallbacks.value(), 0U);
  EXPECT_GE(machines.value(), 1U);

  // Invalid parent state -> fallback.
  const EvalState empty_state;
  ev.evaluate_incremental(child, parent, empty_state, touched, out);
  EXPECT_EQ(hits.value(), 1U);
  EXPECT_EQ(fallbacks.value(), 1U);
}

TEST(EvaluatorDifferential, FrontsInvariantAcrossExecutionModes) {
  // The same seed must yield bit-identical fronts whether offspring pairs
  // run serially or pooled, with or without the delta path: the evaluator
  // is a pure function and none of these paths may perturb it.
  const Scenario scenario = make_dataset1(19);

  const auto front_for = [&](bool incremental, std::size_t threads) {
    EvaluatorOptions options;
    options.incremental = incremental;
    const UtilityEnergyProblem problem(scenario.system, scenario.trace,
                                       std::move(options));
    Nsga2Config config;
    config.population_size = 16;
    config.threads = threads;
    config.seed = 123;
    Nsga2 algorithm(problem, config);
    algorithm.initialize({});
    algorithm.iterate(5);
    return algorithm.front_points();
  };

  const std::vector<EUPoint> reference = front_for(true, 1);
  ASSERT_FALSE(reference.empty());
  for (const bool incremental : {true, false}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE(std::string("incremental=") +
                   (incremental ? "on" : "off") + " threads=" +
                   std::to_string(threads));
      EXPECT_EQ(front_for(incremental, threads), reference);
    }
  }
}

TEST(EvaluatorDifferential, EveryPopulationMemberCarriesAnEvalState) {
  // Nsga2 hands each hinted offspring its parent's EvalState without
  // checking it: the delta path is only as good as the invariant that
  // every population member, at every generation, has a valid state.
  const Scenario scenario = make_dataset1(20);
  const UtilityEnergyProblem problem(scenario.system, scenario.trace);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Nsga2Config config;
    config.population_size = 16;
    config.threads = threads;
    config.seed = 321;
    Nsga2 algorithm(problem, config);
    const auto expect_all_valid = [&](const char* when) {
      ASSERT_EQ(algorithm.population().size(), config.population_size);
      for (std::size_t i = 0; i < algorithm.population().size(); ++i) {
        EXPECT_TRUE(algorithm.population()[i].state.valid())
            << when << ": member " << i;
      }
    };
    algorithm.initialize({});
    expect_all_valid("after initialize");
    algorithm.iterate(5);
    expect_all_valid("after iterate(5)");
  }
}

/// Textbook O(T^2 M) min-min: every step recomputes each unmapped task's
/// best completion over its eligible machines, then maps the (completion,
/// index)-minimal task.  The production per-type-heap version must
/// reproduce this allocation exactly.
Allocation min_min_reference(const SystemModel& system, const Trace& trace) {
  const std::size_t tasks = trace.size();
  Allocation a;
  a.machine.assign(tasks, -1);
  a.order.assign(tasks, 0);
  std::vector<double> available(system.num_machines(), 0.0);
  std::vector<bool> mapped(tasks, false);
  for (std::size_t step = 0; step < tasks; ++step) {
    std::size_t pick = tasks;
    int pick_machine = -1;
    double pick_completion = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < tasks; ++i) {
      if (mapped[i]) continue;
      const auto& task = trace.tasks()[i];
      int choice = -1;
      double completion = std::numeric_limits<double>::infinity();
      for (const int m : system.eligible_machines(task.type)) {
        const auto mi = static_cast<std::size_t>(m);
        const double start = std::max(available[mi], task.arrival);
        const double finish = start + system.etc_on(task.type, mi);
        if (finish < completion) {
          completion = finish;
          choice = m;
        }
      }
      if (completion < pick_completion) {
        pick_completion = completion;
        pick = i;
        pick_machine = choice;
      }
    }
    mapped[pick] = true;
    a.machine[pick] = pick_machine;
    a.order[pick] = static_cast<int>(step);
    available[static_cast<std::size_t>(pick_machine)] = pick_completion;
  }
  return a;
}

TEST(EvaluatorDifferential, MinMinHeapsMatchQuadraticReference) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Scenario scenario = make_dataset1(seed);
    const Allocation fast =
        min_min_completion_time_allocation(scenario.system, scenario.trace);
    const Allocation slow =
        min_min_reference(scenario.system, scenario.trace);
    EXPECT_EQ(fast.machine, slow.machine);
    EXPECT_EQ(fast.order, slow.order);
  }
  // Once on the expanded 30-machine suite, where several machine types
  // have multiple instances (the per-type collapse's interesting case).
  const Scenario scenario = make_dataset2(4);
  const Allocation fast =
      min_min_completion_time_allocation(scenario.system, scenario.trace);
  const Allocation slow = min_min_reference(scenario.system, scenario.trace);
  EXPECT_EQ(fast.machine, slow.machine);
  EXPECT_EQ(fast.order, slow.order);
}

}  // namespace
}  // namespace eus
