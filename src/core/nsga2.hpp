#pragma once

// The adapted NSGA-II of §IV-D / Algorithm 1:
//
//   1. start from a population of N chromosomes (optionally seeded with
//      greedy-heuristic allocations, §V-B);
//   2. each generation: N/2 uniformly-paired crossovers produce N
//      offspring, each offspring mutates with a configured probability;
//   3. parents + offspring merge into a 2N meta-population, which is
//      nondominated-sorted; whole ranks fill the next parent population and
//      the cut rank is truncated by crowding distance (elitism for free).
//
// A generation is plan → pair tasks → selection.  The plan takes every
// random draw of the generation serially (parent picks, crossover segments,
// mutations); the N/2 offspring pairs are then built from those draws and
// evaluated as independent tasks, optionally on a thread pool.  Fronts are
// bit-identical for a fixed seed at any thread count.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/operators.hpp"
#include "core/problem.hpp"
#include "sched/allocation.hpp"
#include "sched/eval_state.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace eus {

/// How crossover parents are picked from the population.
enum class SelectionMode {
  /// The paper's §IV-D choice: two distinct chromosomes uniformly at
  /// random.
  kUniform,
  /// Deb's original NSGA-II binary tournament by crowded comparison
  /// (lower rank wins; ties broken by larger crowding distance).
  kCrowdedTournament,
};

struct Nsga2Config {
  /// N: chromosomes per population (must be even and >= 2; paper uses 100).
  std::size_t population_size = 100;
  /// Parent selection (paper default; see bench_ablation_selection).
  SelectionMode selection = SelectionMode::kUniform;
  /// Probability that a fresh offspring is mutated ("selected by
  /// experimentation" in the paper; see bench_ablation_mutation).
  double mutation_probability = 0.25;
  /// Encoding ablation: restore order genes to a strict 0..T-1 permutation
  /// after every crossover/mutation (see DESIGN.md).
  bool repair_order_permutation = false;
  /// Disable the crowding-distance truncation (ablation): the cut rank is
  /// then truncated in ascending-energy order instead.
  bool use_crowding = true;
  /// Worker threads for building and evaluating offspring pairs; 0 =
  /// hardware concurrency, 1 = inline (no pool).  Ignored when
  /// `shared_pool` is set.
  std::size_t threads = 1;
  /// Externally owned pool shared across algorithm instances (e.g. the
  /// StudyEngine's, which also runs whole populations on it — the pool's
  /// parallel_for supports such nesting).  Must outlive the algorithm.
  /// Scheduling only: results stay bit-identical for a fixed seed.
  ThreadPool* shared_pool = nullptr;
  /// Optional telemetry sink (must outlive the algorithm).  Counters and
  /// timers aggregate across every instance sharing the registry.
  MetricsRegistry* metrics = nullptr;
  std::uint64_t seed = 1;
};

struct Individual {
  Allocation genome;
  EUPoint objectives;
  std::size_t rank = 0;     ///< 0 == nondominated
  double crowding = 0.0;
  /// Per-machine simulation partials backing the incremental
  /// delta-evaluator.  An offspring that differs from its base parent in
  /// few genes re-simulates only the dirty machines of the base's state;
  /// fronts are bit-identical to a full pass.
  EvalState state;
};

/// Observer invoked after every generation with (generation number, the
/// freshly selected parent population).  Must not outlive its captures; the
/// population reference is only valid during the call.
using GenerationObserver =
    std::function<void(std::size_t, const std::vector<Individual>&)>;

/// Deb's crowded-comparison binary tournament between candidates `a` and
/// `b` (indices into `population`): lower rank wins; equal ranks prefer
/// the larger crowding distance; an *exact* crowding tie is broken by a
/// fair coin flip from `rng` (historically the first candidate always won,
/// deterministically biasing selection toward earlier draws).
[[nodiscard]] std::size_t crowded_tournament_winner(
    const std::vector<Individual>& population, std::size_t a, std::size_t b,
    Rng& rng);

class Nsga2 {
 public:
  /// The problem must outlive the algorithm.  Throws on invalid config.
  Nsga2(const BiObjectiveProblem& problem, Nsga2Config config);
  ~Nsga2();

  Nsga2(const Nsga2&) = delete;
  Nsga2& operator=(const Nsga2&) = delete;

  /// Builds the initial population: the given seed chromosomes first (must
  /// fit within N and match the genome size), the rest uniformly random.
  /// Must be called exactly once before iterate().
  void initialize(const std::vector<Allocation>& seeds);

  /// Warm-started initialization: `seeds` are first-class (same contract as
  /// initialize()), then as many `warm` genomes as still fit are injected
  /// — archived fronts from a previous converged run — and the remainder is
  /// filled uniformly at random exactly as a cold start would.  Overflowing
  /// warm genomes are dropped (lowest-index kept).  Once initialization
  /// succeeds, bumps the `nsga2.warm_seeds` counter by the number injected.
  void initialize_warm(const std::vector<Allocation>& seeds,
                       const std::vector<Allocation>& warm);

  /// Runs `generations` generations (Algorithm 1 steps 3-11, repeated).
  void iterate(std::size_t generations);

  /// Installs (or clears, with nullptr) the per-generation observer —
  /// convergence trackers, archives, live plots.
  void set_observer(GenerationObserver observer) {
    observer_ = std::move(observer);
  }

  /// Current parent population, rank/crowding annotations up to date.
  [[nodiscard]] const std::vector<Individual>& population() const noexcept {
    return population_;
  }

  /// The current rank-0 individuals (the evolving Pareto set), ascending
  /// energy.
  [[nodiscard]] std::vector<Individual> front() const;

  /// Just the rank-0 objective points, ascending energy.
  [[nodiscard]] std::vector<EUPoint> front_points() const;

  [[nodiscard]] std::size_t generation() const noexcept { return generation_; }
  [[nodiscard]] std::uint64_t evaluations() const noexcept {
    return evaluations_;
  }
  [[nodiscard]] const Nsga2Config& config() const noexcept { return config_; }

 private:
  /// Delta-evaluation lineage of one offspring: the parent it is
  /// evaluated against (its base) and the evaluator's plan of the genes
  /// where it differs from it.
  struct Lineage {
    std::uint32_t base = 0;
    DeltaPlan plan;
  };

  /// The draws of one offspring pair: the parents' population indices,
  /// the crossover segment and each child's mutation (not drawn == none).
  struct PairPlan {
    std::size_t first = 0;
    std::size_t second = 0;
    CrossoverSegment segment;
    MutationDraw mutation_a;
    MutationDraw mutation_b;
  };

  /// Runs fn(k) for k in [0, count): on the pool, or inline without one.
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& fn);
  void count_evaluations(std::size_t count);
  /// Evaluates individuals[idx] in place: a clone of its base or a delta
  /// against it, or a full pass without a lineage.  The genome must be
  /// structurally valid (see Evaluator::evaluate_trusted).
  void evaluate_individual(std::vector<Individual>& individuals,
                           std::size_t idx, const Lineage* lineage);
  /// Takes every random draw of one generation into plan_, in the order
  /// building the pairs one after another would.
  void plan_pairs();
  /// The lineage rule: fills `lineage` for `child`, built by cloning
  /// meta[cloned] and crossing it over `segment` with meta[donor] before
  /// `mutation`.  Stops at the first gene the evaluator's cost rule puts
  /// over budget.
  void trace_lineage(const std::vector<Individual>& meta,
                     const Allocation& child, std::size_t cloned,
                     std::size_t donor, const CrossoverSegment& segment,
                     const MutationDraw& mutation, Lineage& lineage) const;
  /// Builds offspring pair `pair` into meta[N + 2 * pair] and the slot
  /// after it from plan_, traces their lineages and evaluates both.  Pairs
  /// touch disjoint slots and lineages, so they may run concurrently.
  void build_pair(std::vector<Individual>& meta, std::size_t pair);
  /// Ranks and crowds `meta`, keeps the best N in it and moves the rest
  /// into spare_.
  void annotate_and_select(std::vector<Individual>& meta);

  const BiObjectiveProblem* problem_;
  Nsga2Config config_;
  Rng rng_;
  std::unique_ptr<ThreadPool> owned_pool_;  ///< null when shared or serial
  ThreadPool* pool_ = nullptr;              ///< null when running inline
  /// Metric handles, resolved once at construction (null when disabled).
  Counter* metric_evaluations_ = nullptr;
  Counter* metric_generations_ = nullptr;
  Gauge* metric_front_size_ = nullptr;
  TimerMetric* timer_variation_ = nullptr;
  TimerMetric* timer_evaluation_ = nullptr;
  TimerMetric* timer_selection_ = nullptr;
  std::vector<Individual> population_;
  /// Individuals the last selection dropped; the next generation's
  /// offspring take over their genome storage.
  std::vector<Individual> spare_;
  /// Per-generation draws and offspring lineage, reused across generations.
  std::vector<PairPlan> plan_;
  std::vector<Lineage> lineages_;
  GenerationObserver observer_;
  std::size_t generation_ = 0;
  std::uint64_t evaluations_ = 0;
  bool initialized_ = false;
};

}  // namespace eus
