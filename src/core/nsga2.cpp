#include "core/nsga2.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/crowding.hpp"
#include "core/nondominated_sort.hpp"
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
    pool_ = config_.shared_pool;
  } else if (config_.threads != 1) {
    owned_pool_ = std::make_unique<ThreadPool>(config_.threads);
    pool_ = owned_pool_.get();
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
                                std::size_t idx, const Lineage* lineage) {
  Individual& ind = individuals[idx];
  const Evaluator& ev = problem_->evaluator();
  // Cheapest applicable path: clone of the base (reuse its objectives and
  // partials) > delta re-simulation of the dirty machines > full
  // simulation.  All three produce bit-identical objectives.  Every genome
  // here is structurally valid (validated seeds, random fills, or operator
  // children of valid parents), so no path re-validates it.
  if (lineage == nullptr) {
    ind.objectives =
        problem_->objectives_of(ev.evaluate_trusted(ind.genome, ind.state));
    return;
  }
  const Individual& base = individuals[lineage->base];
  if (lineage->touched.empty()) {
    ind.state = base.state;
    ind.objectives = base.objectives;
    return;
  }
  ind.objectives = problem_->objectives_of(ev.evaluate_incremental(
      ind.genome, base.genome, base.state, lineage->touched, ind.state,
      /*trusted_child=*/true));
}

void Nsga2::for_each_index(std::size_t count,
                           const std::function<void(std::size_t)>& fn) {
  if (pool_ != nullptr) {
    pool_->parallel_for(count, fn);
  } else {
    for (std::size_t k = 0; k < count; ++k) fn(k);
  }
}

void Nsga2::count_evaluations(std::size_t count) {
  evaluations_ += count;
  if (metric_evaluations_ != nullptr) metric_evaluations_->add(count);
}

void Nsga2::initialize(const std::vector<Allocation>& seeds) {
  if (initialized_) throw std::logic_error("already initialized");
  if (seeds.size() > config_.population_size) {
    throw std::invalid_argument("more seeds than population slots");
  }
  population_.clear();
  population_.reserve(config_.population_size);
  for (const Allocation& seed : seeds) {
    // User-supplied genomes get their one validation (shape included)
    // here; random fills below are valid by construction (drawn from
    // eligible machines and in-range p-states), so the initial evaluation
    // sweep can skip the per-gene pass for the whole population.
    problem_->evaluator().validate(seed);
    population_.push_back({seed, {}, 0, 0.0, {}});
  }
  while (population_.size() < config_.population_size) {
    population_.push_back({random_allocation(*problem_, rng_), {}, 0, 0.0, {}});
  }
  for_each_index(population_.size(), [&](std::size_t k) {
    const ScopedTimer timed(timer_evaluation_);
    evaluate_individual(population_, k, nullptr);
  });
  count_evaluations(population_.size());

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
  initialize(combined);
  if (injected > 0 && config_.metrics != nullptr) {
    config_.metrics->counter("nsga2.warm_seeds").add(injected);
  }
}

void Nsga2::annotate_and_select(std::vector<Individual>& meta) {
  const std::size_t n = config_.population_size;

  std::vector<EUPoint> points;
  points.reserve(meta.size());
  for (const auto& ind : meta) points.push_back(ind.objectives);
  const SortedFronts sorted = nondominated_sort(points);

  std::vector<Individual> next;
  next.reserve(std::min(n, meta.size()));
  std::vector<bool> kept(meta.size(), false);
  const auto keep_member = [&](std::size_t idx, double crowding) {
    Individual ind = std::move(meta[idx]);
    ind.rank = sorted.rank[idx];
    ind.crowding = crowding;
    next.push_back(std::move(ind));
    kept[idx] = true;
  };
  for (const auto& front : sorted.fronts) {
    const std::vector<double> crowd = crowding_distances(points, front);

    if (next.size() + front.size() <= n || meta.size() <= n) {
      // Whole rank fits (or we are just annotating an N-sized population).
      for (std::size_t k = 0; k < front.size(); ++k) {
        keep_member(front[k], crowd[k]);
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
    for (const std::size_t k : keep) keep_member(front[k], crowd[k]);
    break;
  }
  // The dropped members' genome and state storage is handed to the next
  // generation's offspring.
  spare_.clear();
  for (std::size_t idx = 0; idx < meta.size(); ++idx) {
    if (!kept[idx]) spare_.push_back(std::move(meta[idx]));
  }
  meta = std::move(next);
}

void Nsga2::plan_pairs() {
  const ScopedTimer timed(timer_variation_);
  const std::size_t n = config_.population_size;

  // Parent pick: uniform (the paper) or crowded binary tournament (Deb).
  const auto select_parent = [&]() -> std::size_t {
    if (config_.selection == SelectionMode::kUniform) return rng_.below(n);
    const std::size_t a = rng_.below(n);
    const std::size_t b = rng_.below(n);
    return crowded_tournament_winner(population_, a, b, rng_);
  };
  // A child clones its parent, and crossover keeps each chromosome's
  // P-state presence, so the parent decides whether a P-state is drawn.
  const auto maybe_mutation = [&](const Allocation& parent) {
    if (!rng_.chance(config_.mutation_probability)) return MutationDraw{};
    return draw_mutation(*problem_, parent.size(), !parent.pstate.empty(),
                         rng_);
  };

  plan_.resize(n / 2);
  for (PairPlan& pair : plan_) {
    pair.first = select_parent();
    pair.second = select_parent();
    while (n > 1 && pair.second == pair.first) pair.second = select_parent();
    const Allocation& first = population_[pair.first].genome;
    const Allocation& second = population_[pair.second].genome;
    pair.segment = draw_crossover(first.size(), rng_);
    pair.mutation_a = maybe_mutation(first);
    pair.mutation_b = maybe_mutation(second);
  }
}

void Nsga2::trace_lineage(const std::vector<Individual>& meta,
                          const Allocation& child, std::size_t cloned,
                          std::size_t donor, const CrossoverSegment& segment,
                          const MutationDraw& mutation, Lineage& lineage) {
  // The base is the parent that gave the child more genes: the one it was
  // cloned from, or the donor when the segment covers more than half the
  // genome.  A donor without the child's P-state genes (a greedy seed next
  // to DVFS genomes) is never a base: the diff against it is the whole
  // genome.
  const std::size_t tasks = child.size();
  const std::size_t len = segment.swapped ? segment.hi - segment.lo + 1 : 0;
  const bool donor_fits =
      meta[donor].genome.pstate.size() == child.pstate.size();
  const bool from_donor = donor_fits && 2 * len > tasks;
  const Allocation& base = meta[from_donor ? donor : cloned].genome;
  lineage.base = static_cast<std::uint32_t>(from_donor ? donor : cloned);
  lineage.touched.clear();
  // Child and base can only differ where the other parent's genes went —
  // inside the segment for the cloned base, outside it for the donor —
  // and at the mutated genes.  Those genes are compared, since a segment
  // swapped between converged parents copies mostly-equal genes.
  if (from_donor) {
    if (segment.lo > 0) {
      collect_touched(child, base, 0, segment.lo - 1, lineage.touched);
    }
    collect_touched(child, base, segment.hi + 1, tasks - 1, lineage.touched);
  } else if (segment.swapped) {
    collect_touched(child, base, segment.lo, segment.hi, lineage.touched);
  }
  if (!mutation.drawn) return;
  for (const std::uint32_t gene : {mutation.gene, mutation.partner}) {
    const bool in_segment =
        segment.swapped && gene >= segment.lo && gene <= segment.hi;
    if (in_segment == from_donor) {
      collect_touched(child, base, gene, gene, lineage.touched);
    }
  }
}

void Nsga2::build_pair(std::vector<Individual>& meta, std::size_t pair) {
  const std::size_t n = config_.population_size;
  const PairPlan& plan = plan_[pair];
  const std::size_t slot_a = n + 2 * pair;
  const std::size_t slot_b = slot_a + 1;
  Lineage& lineage_a = lineages_[2 * pair];
  Lineage& lineage_b = lineages_[2 * pair + 1];
  const bool repair = config_.repair_order_permutation;
  {
    const ScopedTimer timed(timer_variation_);
    Allocation& child_a = meta[slot_a].genome;
    Allocation& child_b = meta[slot_b].genome;
    child_a = meta[plan.first].genome;
    child_b = meta[plan.second].genome;
    apply_crossover(child_a, child_b, plan.segment);
    apply_mutation(child_a, plan.mutation_a);
    apply_mutation(child_b, plan.mutation_b);
    if (repair) {
      // Repair rewrites every order gene, so the children take a full pass.
      repair_order_permutation(child_a);
      repair_order_permutation(child_b);
    } else {
      trace_lineage(meta, child_a, plan.first, plan.second, plan.segment,
                    plan.mutation_a, lineage_a);
      trace_lineage(meta, child_b, plan.second, plan.first, plan.segment,
                    plan.mutation_b, lineage_b);
    }
  }
  const ScopedTimer timed(timer_evaluation_);
  evaluate_individual(meta, slot_a, repair ? nullptr : &lineage_a);
  evaluate_individual(meta, slot_b, repair ? nullptr : &lineage_b);
}

void Nsga2::iterate(std::size_t generations) {
  if (!initialized_) throw std::logic_error("initialize() first");
  const std::size_t n = config_.population_size;

  for (std::size_t g = 0; g < generations; ++g) {
    // Steps 3-5: N offspring from N/2 uniform-pair crossovers plus
    // mutation.  Every draw is taken first, serially, in the order that
    // building the pairs one after another would take them; the pairs are
    // then built and evaluated as independent tasks, each child while its
    // genome is still cache-hot.  Fronts are identical at any thread count.
    plan_pairs();
    std::vector<Individual> meta;
    meta.reserve(2 * n);
    for (auto& ind : population_) meta.push_back(std::move(ind));
    // Offspring slots take over the storage of the individuals the last
    // selection dropped, so copying a parent into one allocates nothing.
    for (std::size_t k = 0; k < n; ++k) {
      meta.push_back(k < spare_.size() ? std::move(spare_[k]) : Individual{});
    }
    lineages_.resize(n);
    for_each_index(n / 2, [&](std::size_t pair) { build_pair(meta, pair); });
    count_evaluations(n);

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
