#include "core/local_search.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace eus {
namespace {

double score(const EUPoint& p, double lambda, double u_scale,
             double e_scale) {
  return lambda * p.utility / u_scale - (1.0 - lambda) * p.energy / e_scale;
}

}  // namespace

LocalSearchResult local_search(const BiObjectiveProblem& problem,
                               Allocation start,
                               const LocalSearchOptions& options, Rng& rng) {
  if (options.lambda < 0.0 || options.lambda > 1.0) {
    throw std::invalid_argument("lambda must lie in [0, 1]");
  }
  const std::size_t tasks = start.size();
  const SystemModel& system = problem.system();
  const Trace& trace = problem.trace();

  // Single-gene moves are the delta-evaluator's best case: only the one or
  // two machines a move touches get re-simulated, with objectives
  // bit-identical to a full pass (see docs/evaluator.md).
  const Evaluator& ev = problem.evaluator();
  EvalState state;
  EvalState candidate_state;
  std::vector<std::uint32_t> touched;

  LocalSearchResult result;
  result.allocation = std::move(start);
  result.objectives =
      problem.objectives_of(ev.evaluate(result.allocation, state));
  result.evaluations = 1;
  if (tasks == 0) return result;

  const double u_scale = std::max(std::abs(result.objectives.utility), 1.0);
  const double e_scale = std::max(std::abs(result.objectives.energy), 1.0);
  double current =
      score(result.objectives, options.lambda, u_scale, e_scale);

  std::size_t stale = 0;
  while (result.evaluations < options.max_evaluations &&
         stale < options.patience) {
    Allocation candidate = result.allocation;
    touched.clear();
    if (rng.chance(0.5)) {
      // Relocate one task to another eligible machine.
      const std::size_t g = rng.below(tasks);
      const auto& eligible =
          system.eligible_machines(trace.tasks()[g].type);
      candidate.machine[g] =
          eligible[rng.below(eligible.size())];
      touched.push_back(static_cast<std::uint32_t>(g));
    } else {
      // Swap two tasks' scheduling orders.
      const std::size_t g = rng.below(tasks);
      const std::size_t h = rng.below(tasks);
      std::swap(candidate.order[g], candidate.order[h]);
      touched.push_back(static_cast<std::uint32_t>(g));
      touched.push_back(static_cast<std::uint32_t>(h));
    }
    if (!candidate.pstate.empty() && rng.chance(0.25)) {
      const std::size_t p = rng.below(tasks);
      candidate.pstate[p] =
          static_cast<int>(rng.below(problem.num_pstates()));
      touched.push_back(static_cast<std::uint32_t>(p));
    }

    const EUPoint objectives = problem.objectives_of(
        ev.evaluate_incremental(candidate, result.allocation, state, touched,
                                candidate_state, /*trusted_child=*/true));
    ++result.evaluations;
    const double candidate_score =
        score(objectives, options.lambda, u_scale, e_scale);
    if (candidate_score > current ||
        dominates(objectives, result.objectives)) {
      result.allocation = std::move(candidate);
      result.objectives = objectives;
      std::swap(state, candidate_state);
      current = candidate_score;
      ++result.improvements;
      stale = 0;
    } else {
      ++stale;
    }
  }
  return result;
}

std::vector<LocalSearchResult> polish_front(
    const BiObjectiveProblem& problem, const std::vector<Allocation>& front,
    std::size_t evaluations_each, Rng& rng) {
  std::vector<LocalSearchResult> out;
  out.reserve(front.size());
  const std::size_t n = front.size();
  for (std::size_t i = 0; i < n; ++i) {
    LocalSearchOptions options;
    options.lambda =
        n > 1 ? static_cast<double>(i) / static_cast<double>(n - 1) : 0.5;
    options.max_evaluations = evaluations_each;
    options.patience = std::max<std::size_t>(10, evaluations_each / 4);
    out.push_back(local_search(problem, front[i], options, rng));
  }
  return out;
}

}  // namespace eus
