#include "core/simulated_annealing.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/operators.hpp"

namespace eus {
namespace {

double score(const EUPoint& p, double lambda, double u_scale,
             double e_scale) {
  return lambda * p.utility / u_scale - (1.0 - lambda) * p.energy / e_scale;
}

}  // namespace

SaResult simulated_annealing(const BiObjectiveProblem& problem,
                             Allocation start, const SaOptions& options,
                             Rng& rng) {
  if (options.lambda < 0.0 || options.lambda > 1.0) {
    throw std::invalid_argument("lambda must lie in [0, 1]");
  }
  if (!(options.cooling > 0.0 && options.cooling < 1.0)) {
    throw std::invalid_argument("cooling must lie in (0, 1)");
  }
  if (options.initial_temperature < 0.0) {
    throw std::invalid_argument("initial temperature must be >= 0");
  }
  if (options.steps_per_temperature == 0) {
    throw std::invalid_argument("steps_per_temperature must be >= 1");
  }

  // The annealing chain mutates one gene pair per step — ideal for the
  // delta-evaluator, which re-simulates only the touched machines while
  // producing bit-identical objectives (see docs/evaluator.md).
  const Evaluator& ev = problem.evaluator();
  EvalState state;
  EvalState candidate_state;
  std::vector<std::uint32_t> touched;

  SaResult best;
  Allocation current = std::move(start);
  EUPoint current_obj = problem.objectives_of(ev.evaluate(current, state));
  best.allocation = current;
  best.objectives = current_obj;
  best.evaluations = 1;
  if (current.size() == 0) return best;

  const double u_scale = std::max(std::abs(current_obj.utility), 1.0);
  const double e_scale = std::max(std::abs(current_obj.energy), 1.0);
  double current_score =
      score(current_obj, options.lambda, u_scale, e_scale);
  double best_score = current_score;
  double temperature =
      options.initial_temperature * std::max(std::abs(current_score), 1.0);

  std::size_t step_in_level = 0;
  while (best.evaluations < options.max_evaluations) {
    Allocation candidate = current;
    touched.clear();
    mutate(candidate, problem, rng, &touched);  // the paper-style move

    const EUPoint obj = problem.objectives_of(
        ev.evaluate_incremental(candidate, current, state, touched,
                                candidate_state, /*trusted_child=*/true));
    ++best.evaluations;
    const double s = score(obj, options.lambda, u_scale, e_scale);
    const double delta = s - current_score;

    bool accept = delta >= 0.0;
    if (!accept && temperature > 0.0) {
      accept = rng.uniform() < std::exp(delta / temperature);
    }
    if (accept) {
      current = std::move(candidate);
      current_obj = obj;
      std::swap(state, candidate_state);
      current_score = s;
      ++best.accepted;
      if (s > best_score) {
        best_score = s;
        best.allocation = current;
        best.objectives = current_obj;
      }
    }

    if (++step_in_level >= options.steps_per_temperature) {
      step_in_level = 0;
      temperature *= options.cooling;
    }
  }
  return best;
}

std::vector<SaResult> weighted_sum_sweep(const BiObjectiveProblem& problem,
                                         const std::vector<double>& lambdas,
                                         std::size_t total_evaluations,
                                         Rng& rng) {
  if (lambdas.empty()) {
    throw std::invalid_argument("weighted-sum sweep needs >= 1 weight");
  }
  std::vector<SaResult> results;
  results.reserve(lambdas.size());
  const std::size_t budget_each =
      std::max<std::size_t>(1, total_evaluations / lambdas.size());
  for (const double lambda : lambdas) {
    SaOptions options;
    options.lambda = lambda;
    options.max_evaluations = budget_each;
    Rng chain = rng.split();
    results.push_back(simulated_annealing(
        problem, random_allocation(problem, chain), options, chain));
  }
  return results;
}

}  // namespace eus
