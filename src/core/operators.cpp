#include "core/operators.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace eus {

Allocation random_allocation(const BiObjectiveProblem& problem, Rng& rng) {
  const SystemModel& system = problem.system();
  const Trace& trace = problem.trace();
  const std::size_t tasks = trace.size();

  Allocation a;
  a.machine.resize(tasks);
  a.order.resize(tasks);
  for (std::size_t i = 0; i < tasks; ++i) {
    const auto& eligible = system.eligible_machines(trace.tasks()[i].type);
    a.machine[i] = eligible[rng.below(eligible.size())];
    a.order[i] = static_cast<int>(i);
  }
  // Fisher-Yates for the order permutation.
  for (std::size_t i = tasks; i > 1; --i) {
    std::swap(a.order[i - 1], a.order[rng.below(i)]);
  }
  if (const std::size_t p = problem.num_pstates(); p > 0) {
    a.pstate.resize(tasks);
    for (std::size_t i = 0; i < tasks; ++i) {
      a.pstate[i] = static_cast<int>(rng.below(p));
    }
  }
  return a;
}

CrossoverSegment draw_crossover(std::size_t tasks, Rng& rng) {
  if (tasks == 0) return {};
  std::size_t i = rng.below(tasks);
  std::size_t j = rng.below(tasks);
  if (i > j) std::swap(i, j);
  return {i, j, true};
}

void apply_crossover(Allocation& a, Allocation& b,
                     const CrossoverSegment& segment) {
  if (b.size() != a.size()) throw std::invalid_argument("genome size mismatch");
  if (!segment.swapped) return;
  for (std::size_t g = segment.lo; g <= segment.hi; ++g) {
    std::swap(a.machine[g], b.machine[g]);
    std::swap(a.order[g], b.order[g]);
  }
  if (!a.pstate.empty() && !b.pstate.empty()) {
    for (std::size_t g = segment.lo; g <= segment.hi; ++g) {
      std::swap(a.pstate[g], b.pstate[g]);
    }
  }
}

void crossover(Allocation& a, Allocation& b, Rng& rng) {
  apply_crossover(a, b, draw_crossover(a.size(), rng));
}

MutationDraw draw_mutation(const BiObjectiveProblem& problem, std::size_t tasks,
                           bool pstates, Rng& rng) {
  if (tasks == 0) return {};
  MutationDraw draw;
  draw.drawn = true;
  const std::size_t g = rng.below(tasks);
  const auto& eligible =
      problem.system().eligible_machines(problem.trace().tasks()[g].type);
  draw.gene = static_cast<std::uint32_t>(g);
  draw.machine = eligible[rng.below(eligible.size())];
  draw.partner = static_cast<std::uint32_t>(rng.below(tasks));
  if (pstates) {
    draw.pstate = static_cast<int>(rng.below(problem.num_pstates()));
  }
  return draw;
}

void apply_mutation(Allocation& a, const MutationDraw& draw) {
  if (!draw.drawn) return;
  if ((draw.pstate >= 0) == a.pstate.empty()) {
    throw std::invalid_argument("mutation draw and genome disagree on pstates");
  }
  a.machine[draw.gene] = draw.machine;
  std::swap(a.order[draw.gene], a.order[draw.partner]);
  if (draw.pstate >= 0) a.pstate[draw.gene] = draw.pstate;
}

void mutate(Allocation& a, const BiObjectiveProblem& problem, Rng& rng,
            std::vector<std::uint32_t>* touched) {
  const MutationDraw draw =
      draw_mutation(problem, a.size(), !a.pstate.empty(), rng);
  apply_mutation(a, draw);
  if (touched != nullptr && draw.drawn) {
    touched->push_back(draw.gene);
    touched->push_back(draw.partner);
  }
}

void repair_order_permutation(Allocation& a) {
  const std::size_t tasks = a.size();
  std::vector<std::uint32_t> sequence(tasks);
  std::iota(sequence.begin(), sequence.end(), 0U);
  std::sort(sequence.begin(), sequence.end(),
            [&](std::uint32_t x, std::uint32_t y) {
              return a.order[x] != a.order[y] ? a.order[x] < a.order[y]
                                              : x < y;
            });
  for (std::size_t pos = 0; pos < tasks; ++pos) {
    a.order[sequence[pos]] = static_cast<int>(pos);
  }
}

}  // namespace eus
