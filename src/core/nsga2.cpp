#include "core/nsga2.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/crowding.hpp"
#include "core/nondominated_sort.hpp"
#include "core/operators.hpp"
#include "pareto/front.hpp"

namespace eus {

std::size_t crowded_tournament_winner(
    const std::vector<Individual>& population, std::size_t a, std::size_t b,
    Rng& rng) {
  const Individual& ia = population[a];
  const Individual& ib = population[b];
  if (ia.rank != ib.rank) return ia.rank < ib.rank ? a : b;
  if (ia.crowding != ib.crowding) return ia.crowding > ib.crowding ? a : b;
  return rng.below(2) == 0 ? a : b;
}

Nsga2::Nsga2(const BiObjectiveProblem& problem, Nsga2Config config)
    : problem_(&problem), config_(config), rng_(config.seed) {
  if (config_.population_size < 2 || config_.population_size % 2 != 0) {
    throw std::invalid_argument("population size must be even and >= 2");
  }
  if (config_.mutation_probability < 0.0 ||
      config_.mutation_probability > 1.0) {
    throw std::invalid_argument("mutation probability must be in [0,1]");
  }
  if (config_.shared_pool != nullptr) {
    eval_pool_ = config_.shared_pool;
  } else if (config_.threads != 1) {
    owned_pool_ = std::make_unique<ThreadPool>(config_.threads);
    eval_pool_ = owned_pool_.get();
  }
  if (config_.metrics != nullptr) {
    MetricsRegistry& m = *config_.metrics;
    metric_evaluations_ = &m.counter("nsga2.evaluations");
    metric_generations_ = &m.counter("nsga2.generations");
    metric_front_size_ = &m.gauge("nsga2.front_size");
    timer_variation_ = &m.timer("nsga2.variation_s");
    timer_evaluation_ = &m.timer("nsga2.evaluation_s");
    timer_selection_ = &m.timer("nsga2.selection_s");
  }
}

Nsga2::~Nsga2() = default;

void Nsga2::evaluate_individual(std::vector<Individual>& individuals,
                                std::size_t idx, const OffspringHint* hint,
                                bool trusted_genome) {
  Individual& ind = individuals[idx];
  const Evaluator* ev = problem_->incremental_evaluator();
  if (ev == nullptr || !ev->incremental_on()) {
    ind.objectives = problem_->evaluate(ind.genome);
    return;
  }
  // Cheapest applicable path: clone of the parent (reuse its objectives
  // and partials) > delta re-simulation of the dirty machines > full
  // simulation.  All three produce bit-identical objectives.
  if (hint != nullptr && !hint->full) {
    const Individual& parent = individuals[hint->parent];
    if (hint->touched.empty()) {
      ind.state = parent.state;
      ind.objectives = parent.objectives;
      return;
    }
    // Operator-built child of a validated parent: structurally valid, so
    // the evaluator may skip per-gene validation.
    ind.objectives = problem_->objectives_of(ev->evaluate_incremental(
        ind.genome, parent.genome, parent.state, hint->touched, ind.state,
        /*trusted_child=*/true));
    return;
  }
  ind.objectives = problem_->objectives_of(
      trusted_genome ? ev->evaluate_trusted(ind.genome, ind.state)
                     : ev->evaluate(ind.genome, ind.state));
}

void Nsga2::evaluate_all(std::vector<Individual>& individuals,
                         std::size_t begin,
                         const std::vector<OffspringHint>* hints,
                         bool trusted_genomes) {
  const ScopedTimer timed(timer_evaluation_);
  const std::size_t count = individuals.size() - begin;
  const auto eval_one = [&](std::size_t k) {
    evaluate_individual(individuals, begin + k,
                        hints != nullptr ? &(*hints)[k] : nullptr,
                        trusted_genomes);
  };
  if (eval_pool_ != nullptr) {
    eval_pool_->parallel_for(count, eval_one);
  } else {
    for (std::size_t k = 0; k < count; ++k) eval_one(k);
  }
  evaluations_ += count;
  if (metric_evaluations_ != nullptr) metric_evaluations_->add(count);
}

bool Nsga2::inline_evaluation() const noexcept {
  // With no pool (or a single-worker pool, which runs parallel_for inline)
  // evaluation is serial either way, so each fresh genome can be evaluated
  // the moment it is built — while it is still cache-hot from construction.
  // A population of genomes built first and evaluated afterwards has long
  // been evicted by the time the evaluator reads it back.  Evaluation is a
  // pure function and draws no random numbers, so interleaving changes no
  // result bits.
  return eval_pool_ == nullptr || eval_pool_->size() == 1;
}

void Nsga2::initialize(const std::vector<Allocation>& seeds) {
  if (initialized_) throw std::logic_error("already initialized");
  if (seeds.size() > config_.population_size) {
    throw std::invalid_argument("more seeds than population slots");
  }
  const std::size_t genome = problem_->genome_size();

  population_.clear();
  population_.reserve(config_.population_size);
  const Evaluator* ev = problem_->incremental_evaluator();
  const bool interleave = inline_evaluation();
  const auto eval_fresh = [&]() {
    if (!interleave) return;
    const ScopedTimer timed(timer_evaluation_);
    evaluate_individual(population_, population_.size() - 1, nullptr,
                        /*trusted_genome=*/true);
  };
  for (const Allocation& seed : seeds) {
    if (seed.size() != genome ||
        seed.order.size() != genome) {
      throw std::invalid_argument("seed genome size mismatch");
    }
    // User-supplied genomes get their one structural validation here;
    // random fills below are valid by construction (drawn from eligible
    // machines and in-range p-states), so the initial evaluation sweep
    // can skip the per-gene pass for the whole population.
    if (ev != nullptr) ev->validate(seed);
    population_.push_back({seed, {}, 0, 0.0});
    eval_fresh();
  }
  while (population_.size() < config_.population_size) {
    population_.push_back({random_allocation(*problem_, rng_), {}, 0, 0.0});
    eval_fresh();
  }

  if (interleave) {
    evaluations_ += population_.size();
    if (metric_evaluations_ != nullptr) {
      metric_evaluations_->add(population_.size());
    }
  } else {
    evaluate_all(population_, 0, nullptr, /*trusted_genomes=*/true);
  }

  // Annotate the initial population so front() is meaningful pre-iterate.
  annotate_and_select(population_);
  initialized_ = true;
}

void Nsga2::initialize_warm(const std::vector<Allocation>& seeds,
                            const std::vector<Allocation>& warm) {
  if (seeds.size() > config_.population_size) {
    throw std::invalid_argument("more seeds than population slots");
  }
  std::vector<Allocation> combined = seeds;
  const std::size_t room = config_.population_size - seeds.size();
  const std::size_t injected = std::min(room, warm.size());
  combined.insert(combined.end(), warm.begin(),
                  warm.begin() + static_cast<std::ptrdiff_t>(injected));
  if (injected > 0 && config_.metrics != nullptr) {
    config_.metrics->counter("nsga2.warm_seeds").add(injected);
  }
  initialize(combined);
}

void Nsga2::annotate_and_select(std::vector<Individual>& meta) {
  const std::size_t n = config_.population_size;

  std::vector<EUPoint> points;
  points.reserve(meta.size());
  for (const auto& ind : meta) points.push_back(ind.objectives);
  const SortedFronts sorted = nondominated_sort(points);

  std::vector<Individual> next;
  next.reserve(std::min(n, meta.size()));
  for (const auto& front : sorted.fronts) {
    const std::vector<double> crowd = crowding_distances(points, front);

    if (next.size() + front.size() <= n || meta.size() <= n) {
      // Whole rank fits (or we are just annotating an N-sized population).
      for (std::size_t k = 0; k < front.size(); ++k) {
        Individual ind = std::move(meta[front[k]]);
        ind.rank = sorted.rank[front[k]];
        ind.crowding = crowd[k];
        next.push_back(std::move(ind));
        if (next.size() == n && meta.size() <= n) break;
      }
      if (next.size() == n) break;
      continue;
    }

    // Cut rank: truncate by descending crowding distance (Algorithm 1
    // step 10), or by ascending energy when crowding is ablated away.
    std::vector<std::size_t> keep(front.size());
    std::iota(keep.begin(), keep.end(), 0U);
    if (config_.use_crowding) {
      std::sort(keep.begin(), keep.end(), [&](std::size_t a, std::size_t b) {
        if (crowd[a] != crowd[b]) return crowd[a] > crowd[b];
        return front[a] < front[b];
      });
    }
    const std::size_t need = n - next.size();
    keep.resize(need);
    for (const std::size_t k : keep) {
      Individual ind = std::move(meta[front[k]]);
      ind.rank = sorted.rank[front[k]];
      ind.crowding = crowd[k];
      next.push_back(std::move(ind));
    }
    break;
  }
  meta = std::move(next);
}

void Nsga2::iterate(std::size_t generations) {
  if (!initialized_) throw std::logic_error("initialize() first");
  const std::size_t n = config_.population_size;

  for (std::size_t g = 0; g < generations; ++g) {
    // Step 3-5: offspring via N/2 uniform-pair crossovers + mutation.
    std::vector<Individual> meta;
    meta.reserve(2 * n);
    for (auto& ind : population_) meta.push_back(std::move(ind));

    // Parent pick: uniform (the paper) or crowded binary tournament (Deb).
    const auto select_parent = [&]() -> std::size_t {
      if (config_.selection == SelectionMode::kUniform) return rng_.below(n);
      const std::size_t a = rng_.below(n);
      const std::size_t b = rng_.below(n);
      return crowded_tournament_winner(meta, a, b, rng_);
    };

    // Lineage hints for the delta-evaluator; skipped (full stays true)
    // when the problem has no evaluator or the knob is off.
    const Evaluator* ev = problem_->incremental_evaluator();
    const bool track_deltas = ev != nullptr && ev->incremental_on() &&
                              !config_.repair_order_permutation;
    hints_.resize(n);
    for (OffspringHint& hint : hints_) {
      hint.full = true;
      hint.touched.clear();
    }

    const bool interleave = inline_evaluation();
    {
      thread_local std::vector<std::uint32_t> mutated_a;
      thread_local std::vector<std::uint32_t> mutated_b;
      thread_local std::vector<std::uint32_t> scratch_touched;
      for (std::size_t pair = 0; pair < n / 2; ++pair) {
        {
          const ScopedTimer timed(timer_variation_);
          const std::size_t i = select_parent();
          std::size_t j = select_parent();
          while (n > 1 && j == i) j = select_parent();

          Allocation child_a = meta[i].genome;
          Allocation child_b = meta[j].genome;
          CrossoverSegment segment;
          mutated_a.clear();
          mutated_b.clear();
          crossover(child_a, child_b, rng_, &segment);
          if (rng_.chance(config_.mutation_probability)) {
            mutate(child_a, *problem_, rng_, &mutated_a);
          }
          if (rng_.chance(config_.mutation_probability)) {
            mutate(child_b, *problem_, rng_, &mutated_b);
          }
          if (config_.repair_order_permutation) {
            repair_order_permutation(child_a);
            repair_order_permutation(child_b);
          }
          if (track_deltas) {
            // The true delta vs the parent each child was cloned from:
            // crossover only changes genes where the parents disagreed, so
            // filter the segment (and any mutated genes) down to actual
            // differences before handing them to the delta-evaluator.  A
            // child is also a valid delta off the *other* parent (which
            // donated the segment): its diff there is the segment's
            // complement plus mutations inside the segment.
            //
            // Diffing both parents for every child doubles the genome scans
            // for a marginal payoff, so only the side with the smaller
            // candidate region is scanned up front; the other side is tried
            // only when the first would make the delta-evaluator bail to a
            // full simulation anyway (touched > T/2) — exactly the
            // converged-parents case where the opposite diff can be tiny.
            const auto cloned_side = [&](const Allocation& child,
                                         const Allocation& cloned,
                                         const std::vector<std::uint32_t>&
                                             mutated,
                                         std::vector<std::uint32_t>& out) {
              collect_touched(child, cloned, segment.lo, segment.hi, out);
              for (const std::uint32_t gene : mutated) {
                if (gene >= segment.lo && gene <= segment.hi) {
                  continue;  // already covered by the segment scan
                }
                collect_touched(child, cloned, gene, gene, out);
              }
            };
            const auto donor_side = [&](const Allocation& child,
                                        const Allocation& donor,
                                        const std::vector<std::uint32_t>&
                                            mutated,
                                        std::vector<std::uint32_t>& out) {
              if (segment.lo > 0) {
                collect_touched(child, donor, 0, segment.lo - 1, out);
              }
              if (segment.hi + 1 < child.machine.size()) {
                collect_touched(child, donor, segment.hi + 1,
                                child.machine.size() - 1, out);
              }
              for (const std::uint32_t gene : mutated) {
                if (gene >= segment.lo && gene <= segment.hi) {
                  collect_touched(child, donor, gene, gene, out);
                }
              }
            };
            const auto fill_hint = [&](OffspringHint& hint,
                                       const Allocation& child,
                                       const Allocation& cloned,
                                       std::size_t cloned_index,
                                       const Allocation& donor,
                                       std::size_t donor_index,
                                       const std::vector<std::uint32_t>&
                                           mutated) {
              hint.parent = static_cast<std::uint32_t>(cloned_index);
              hint.full = false;
              if (!segment.swapped) {
                for (const std::uint32_t gene : mutated) {
                  collect_touched(child, cloned, gene, gene, hint.touched);
                }
                return;
              }
              const std::size_t tasks = child.machine.size();
              const std::size_t len = segment.hi - segment.lo + 1;
              const bool cloned_first = len * 2 <= tasks;
              if (cloned_first) {
                cloned_side(child, cloned, mutated, hint.touched);
              } else {
                hint.parent = static_cast<std::uint32_t>(donor_index);
                donor_side(child, donor, mutated, hint.touched);
              }
              if (hint.touched.size() * 2 <= tasks) return;
              scratch_touched.clear();
              if (cloned_first) {
                donor_side(child, donor, mutated, scratch_touched);
              } else {
                cloned_side(child, cloned, mutated, scratch_touched);
              }
              if (scratch_touched.size() < hint.touched.size()) {
                hint.parent = static_cast<std::uint32_t>(
                    cloned_first ? donor_index : cloned_index);
                hint.touched.swap(scratch_touched);
              }
            };
            fill_hint(hints_[2 * pair], child_a, meta[i].genome, i,
                      meta[j].genome, j, mutated_a);
            fill_hint(hints_[2 * pair + 1], child_b, meta[j].genome, j,
                      meta[i].genome, i, mutated_b);
          }
          meta.push_back({std::move(child_a), {}, 0, 0.0});
          meta.push_back({std::move(child_b), {}, 0, 0.0});
        }
        if (interleave) {
          // Serial evaluation: take each child while its genome is still
          // cache-hot from the operators (see inline_evaluation()).
          const ScopedTimer eval_timed(timer_evaluation_);
          evaluate_individual(meta, meta.size() - 2, &hints_[2 * pair],
                              false);
          evaluate_individual(meta, meta.size() - 1, &hints_[2 * pair + 1],
                              false);
        }
      }
    }

    // Only the fresh offspring need evaluating (parents carry theirs);
    // under interleaved evaluation they already were, pair by pair.
    if (interleave) {
      evaluations_ += n;
      if (metric_evaluations_ != nullptr) metric_evaluations_->add(n);
    } else {
      evaluate_all(meta, n, &hints_);
    }

    // Steps 6-11: elitist environmental selection.
    {
      const ScopedTimer timed(timer_selection_);
      annotate_and_select(meta);
    }
    population_ = std::move(meta);
    ++generation_;
    if (metric_generations_ != nullptr) {
      metric_generations_->add(1);
      std::size_t front_size = 0;
      for (const auto& ind : population_) {
        if (ind.rank == 0) ++front_size;
      }
      metric_front_size_->set(static_cast<double>(front_size));
    }
    if (observer_) observer_(generation_, population_);
  }
}

std::vector<Individual> Nsga2::front() const {
  std::vector<Individual> out;
  for (const auto& ind : population_) {
    if (ind.rank == 0) out.push_back(ind);
  }
  // Canonical presentation order: ascending energy, descending utility on
  // ties — the same sweep order pareto/front.cpp uses, so checkpoint front
  // dumps are ordered identically everywhere.
  std::sort(out.begin(), out.end(),
            [](const Individual& a, const Individual& b) {
              return front_order_less(a.objectives, b.objectives);
            });
  return out;
}

std::vector<EUPoint> Nsga2::front_points() const {
  std::vector<EUPoint> out;
  for (const auto& ind : front()) out.push_back(ind.objectives);
  return out;
}

}  // namespace eus
