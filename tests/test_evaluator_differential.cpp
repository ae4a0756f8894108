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
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/nsga2.hpp"
#include "core/problem.hpp"
#include "heuristics/seeds.hpp"
#include "sched/dvfs.hpp"
#include "sched/evaluator.hpp"
#include "telemetry/metrics.hpp"
#include "tuf/builder.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
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

/// Dataset 1's machines under a trace whose TUF library reaches every span
/// shape and span count a trace file can carry: Figure 1's function, a
/// seven-interval piecewise function, an exponential decay, a hard
/// deadline, a function without intervals, and one with the 255 intervals
/// the span table packs at most, cycling through all three shapes.  Every
/// class has its own priority, so a task credited with the priority of
/// another class changes the result.
Scenario tuf_span_scenario() {
  Scenario scenario = make_dataset1(26);
  std::vector<TufInterval> many;
  for (int k = 0; k < 255; ++k) {
    TufInterval iv;
    iv.duration = 10.0;
    iv.shape = static_cast<TufInterval::Shape>(k % 3);
    iv.begin_fraction = 1.0 - k / 256.0;
    const bool flat = iv.shape == TufInterval::Shape::kConstant;
    iv.end_fraction = flat ? iv.begin_fraction : 1.0 - (k + 1) / 256.0;
    many.push_back(iv);
  }
  // Seven intervals, alternately flat and falling.
  std::vector<std::pair<double, double>> samples = {{0.0, 10.0}};
  for (int k = 1; k <= 7; ++k) {
    const double value = k % 2 == 1 ? samples.back().second : 10.0 - k;
    samples.emplace_back(250.0 * k, value);
  }
  std::vector<TufClass> classes;
  classes.push_back({"figure-1", 1.0, make_figure1_tuf()});
  classes.push_back({"piecewise", 1.0, make_piecewise_tuf(samples)});
  classes.push_back({"exp", 1.0, make_exponential_decay_tuf(8.0, 1200.0)});
  classes.push_back({"deadline", 1.0, make_hard_deadline_tuf(12.0, 500.0)});
  classes.push_back({"flat", 1.0, TimeUtilityFunction(3.0, 1.0, {})});
  classes.push_back({"255", 1.0, TimeUtilityFunction(5.0, 1.0, many)});
  TraceConfig config;
  config.num_tasks = 300;
  config.window_seconds = scenario.window_seconds;
  Rng rng(27);
  scenario.name = "tuf-spans";
  const TufClassLibrary library(std::move(classes));
  scenario.trace = generate_trace(scenario.system, library, config, rng);
  return scenario;
}

TEST(EvaluatorDifferential, UtilitySweepMatchesPerTaskStep) {
  // Without dropping, a full pass schedules the machines, computes every
  // utility one TUF span run at a time, then sums the utilities in
  // execution order.  Dropping at a threshold of -infinity runs step_task
  // per task in scheduling order but drops nothing, so that evaluator
  // replays the same schedule task by task: objectives and partials must
  // match the sweeps bit for bit.
  struct Case {
    Scenario scenario;
    int genomes = 0;
  };
  const Case cases[] = {
      {make_dataset1(24), 10},
      {make_dataset3(25), 3},
      {tuf_span_scenario(), 20},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.scenario.name);
    const SystemModel& sys = c.scenario.system;
    EvaluatorOptions dvfs;
    dvfs.dvfs = make_cubic_dvfs({1.0, 0.8, 0.6});
    EvaluatorOptions idle;
    idle.idle_watts.resize(sys.num_machine_types());
    for (std::size_t t = 0; t < idle.idle_watts.size(); ++t) {
      idle.idle_watts[t] = 5.0 + 2.0 * static_cast<double>(t);
    }
    EvaluatorOptions dvfs_idle = dvfs;
    dvfs_idle.idle_watts = idle.idle_watts;
    const OptionVariant variants[] = {
        {"plain", {}},
        {"dvfs", dvfs},
        {"idle-watts", idle},
        {"dvfs+idle-watts", dvfs_idle},
    };
    for (const OptionVariant& variant : variants) {
      SCOPED_TRACE(variant.name);
      EvaluatorOptions stepped = variant.options;
      stepped.drop_worthless_tasks = true;
      stepped.drop_threshold = -std::numeric_limits<double>::infinity();
      const Evaluator ev(sys, c.scenario.trace, variant.options);
      const Evaluator oracle(sys, c.scenario.trace, stepped);
      Rng rng(31);
      for (int g = 0; g < c.genomes; ++g) {
        const Allocation a = random_valid_allocation(
            sys, c.scenario.trace, rng, pstates_of(variant.options));
        EvalState state;
        EvalState oracle_state;
        expect_bit_identical(ev.evaluate(a, state),
                             oracle.evaluate(a, oracle_state));
        expect_states_equal(state, oracle_state);
      }
    }
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

TEST(EvaluatorDifferential, DeltaBudgetIsAQuarterOfTheTrace) {
  // The cost rule's estimate is the touched genes plus the parent's task
  // count on every dirty machine.  An order-only edit dirties just the
  // gene's own machine, so re-ordering k genes of one machine holding c
  // tasks estimates exactly k + c.  One child sits at a quarter of the
  // trace and must take the delta; the next gene puts its sibling between
  // a quarter and a half, which must fall back to a full pass.
  const Scenario scenario = make_dataset1(23);
  MetricsRegistry metrics;
  EvaluatorOptions options;
  options.metrics = &metrics;
  const Evaluator ev(scenario.system, scenario.trace, options);
  Counter& hits = metrics.counter("evaluator.incremental.hits");
  Counter& fallbacks = metrics.counter("evaluator.incremental.fallbacks");

  const std::size_t n = scenario.trace.size();
  const std::size_t machines = scenario.system.num_machines();
  const std::size_t quarter = n / 4;
  const std::size_t on_first = quarter * 2 / 3;
  ASSERT_GE(machines, 2U);
  ASSERT_LT(quarter + 1, n / 2);
  // Tasks [0, on_first) on machine 0, the rest spread over the others;
  // every dataset-1 task type runs on every machine.
  Allocation parent;
  for (std::size_t i = 0; i < n; ++i) {
    parent.machine.push_back(
        i < on_first ? 0 : static_cast<int>(1 + i % (machines - 1)));
    parent.order.push_back(static_cast<int>(i));
  }
  EvalState parent_state;
  ev.evaluate(parent, parent_state);
  ASSERT_EQ(parent_state.machines[0].count, on_first);

  const auto reorder_first = [&](std::size_t genes,
                                 std::vector<std::uint32_t>& touched) {
    Allocation child = parent;
    touched.clear();
    for (std::size_t g = 0; g < genes; ++g) {
      child.order[g] = static_cast<int>((g + 1) % genes);
      touched.push_back(static_cast<std::uint32_t>(g));
    }
    return child;
  };
  const auto expect_exact = [&](const Allocation& child,
                                const std::vector<std::uint32_t>& touched) {
    EvalState delta_state;
    const Evaluation delta = ev.evaluate_incremental(
        child, parent, parent_state, touched, delta_state);
    EvalState oracle_state;
    const Evaluation oracle = ev.evaluate(child, oracle_state);
    expect_bit_identical(delta, oracle);
    expect_states_equal(delta_state, oracle_state);
  };

  std::vector<std::uint32_t> touched;
  const std::size_t at_quarter = quarter - on_first;
  const Allocation within = reorder_first(at_quarter, touched);
  expect_exact(within, touched);
  EXPECT_EQ(hits.value(), 1U) << "estimate " << quarter << " of " << n;
  EXPECT_EQ(fallbacks.value(), 0U);

  const Allocation over = reorder_first(at_quarter + 1, touched);
  expect_exact(over, touched);
  EXPECT_EQ(hits.value(), 1U) << "estimate " << quarter + 1 << " of " << n;
  EXPECT_EQ(fallbacks.value(), 1U);
}

TEST(EvaluatorDifferential, FrontsInvariantAcrossExecutionModes) {
  // The same seed must yield bit-identical fronts whether offspring pairs
  // run serially or pooled: the evaluator is a pure function and the pool
  // may not perturb it.
  const Scenario scenario = make_dataset1(19);
  const UtilityEnergyProblem problem(scenario.system, scenario.trace);

  const auto front_for = [&](std::size_t threads) {
    Nsga2Config config;
    config.population_size = 16;
    config.threads = threads;
    config.seed = 123;
    Nsga2 algorithm(problem, config);
    algorithm.initialize({});
    algorithm.iterate(5);
    return algorithm.front_points();
  };

  const std::vector<EUPoint> reference = front_for(1);
  ASSERT_FALSE(reference.empty());
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(front_for(threads), reference);
  }
}

TEST(EvaluatorDifferential, PopulationMembersMatchFullEvaluation) {
  // After initialize and after every generation, each member's objectives
  // and partials must equal a full validated evaluation of its genome,
  // whichever path (clone, delta or full) gave them.  A wrong base or a
  // missed gene in NSGA-II's lineage rule hands the delta-evaluator a wrong
  // diff and fails here.
  const Scenario scenario = make_dataset1(22);
  const Allocation greedy =
      make_seed(SeedHeuristic::kMinEnergy, scenario.system, scenario.trace);
  ASSERT_TRUE(greedy.pstate.empty());

  struct Case {
    std::string name;
    bool makespan = false;
    bool dvfs = false;
    bool repair = false;
  };
  const Case cases[] = {
      {"utility-energy"},
      {"makespan-energy", true},
      {"dvfs-pstateless-seed", false, true},
      {"order-repair", false, false, true},
  };
  for (const Case& c : cases) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(c.name + " threads=" + std::to_string(threads));
      MetricsRegistry metrics;
      EvaluatorOptions options;
      options.metrics = &metrics;
      if (c.dvfs) options.dvfs = make_cubic_dvfs({0.6, 0.8, 1.0});
      const UtilityEnergyProblem utility(scenario.system, scenario.trace,
                                         options);
      const MakespanEnergyProblem makespan(scenario.system, scenario.trace,
                                           options);
      const BiObjectiveProblem& problem =
          c.makespan ? static_cast<const BiObjectiveProblem&>(makespan)
                     : utility;
      Nsga2Config config;
      config.population_size = 16;
      config.threads = threads;
      config.seed = 77;
      config.repair_order_permutation = c.repair;
      Nsga2 algorithm(problem, config);
      const auto expect_exact = [&](std::size_t generation,
                                    const std::vector<Individual>& members) {
        for (std::size_t i = 0; i < members.size(); ++i) {
          SCOPED_TRACE("generation " + std::to_string(generation) +
                       " member " + std::to_string(i));
          const EUPoint full = problem.evaluate(members[i].genome);
          EXPECT_EQ(members[i].objectives.energy, full.energy);
          EXPECT_EQ(members[i].objectives.utility, full.utility);
          EvalState full_state;
          (void)problem.evaluator().evaluate(members[i].genome, full_state);
          expect_states_equal(members[i].state, full_state);
        }
      };
      algorithm.set_observer(expect_exact);
      algorithm.initialize(c.dvfs ? std::vector<Allocation>{greedy}
                                  : std::vector<Allocation>{});
      expect_exact(0, algorithm.population());
      algorithm.iterate(40);
      if (!c.repair) {
        // The check is only as strong as the delta path's share in it;
        // on dataset 1 the first generations' parents are too diverse for
        // it to fire.
        EXPECT_GT(metrics.counter("evaluator.incremental.hits").value(), 0U);
      }
    }
  }
}

TEST(EvaluatorDifferential, EveryPopulationMemberCarriesAnEvalState) {
  // Nsga2 hands each offspring its base parent's EvalState without
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
