#pragma once

// Genetic operators (§IV-D).  A gene is a task: it carries the machine the
// task runs on and its global scheduling order (plus an optional DVFS
// P-state).  Crossover swaps a contiguous gene segment between two
// chromosomes; mutation reassigns one gene's machine and swaps its
// scheduling order with another gene's.

#include "core/problem.hpp"
#include "sched/allocation.hpp"
#include "util/rng.hpp"

namespace eus {

/// Uniformly random complete allocation: each task on a uniformly random
/// eligible machine, scheduling orders a uniform permutation of 0..T-1,
/// and (when the problem has P-states) uniformly random P-states.
[[nodiscard]] Allocation random_allocation(const BiObjectiveProblem& problem,
                                           Rng& rng);

// Each operator splits into a draw step, which only consumes the RNG, and
// an apply step, which only edits genomes.  No draw reads a gene — only a
// genome's size and whether it carries P-states — so a caller may take
// many operators' draws first, in order, and apply them later elsewhere
// (NSGA-II plans a generation's draws serially, then builds its offspring
// pairs in parallel).  crossover() and mutate() are draw then apply.

/// The gene span a crossover swaps ([lo, hi] inclusive; `swapped` false ==
/// no swap, e.g. zero-size genomes).  Also reported for delta-evaluation.
struct CrossoverSegment {
  std::size_t lo = 0;
  std::size_t hi = 0;
  bool swapped = false;
};

/// Draws a two-point crossover over `tasks` genes: two gene indices
/// uniformly, ordered so lo <= hi.  Draws nothing when `tasks` is 0.
[[nodiscard]] CrossoverSegment draw_crossover(std::size_t tasks, Rng& rng);

/// Swaps genes [segment.lo, segment.hi] wholesale (machines, orders, and
/// P-states when both chromosomes carry them) between `a` and `b`, in
/// place.  A segment that did not swap leaves both untouched.  Throws
/// std::invalid_argument when the chromosomes differ in size.
void apply_crossover(Allocation& a, Allocation& b,
                     const CrossoverSegment& segment);

/// Two-point segment crossover: draw_crossover() then apply_crossover().
void crossover(Allocation& a, Allocation& b, Rng& rng);

/// The draws of one mutation: gene `gene` moves to `machine` and swaps its
/// scheduling order with gene `partner`; `pstate` is the gene's new P-state,
/// or -1 when the genome carries none.  `drawn` false == no mutation.
struct MutationDraw {
  std::uint32_t gene = 0;
  std::uint32_t partner = 0;
  int machine = 0;
  int pstate = -1;
  bool drawn = false;
};

/// Draws the paper's mutation for a genome of `tasks` genes: a uniformly
/// chosen gene, a uniformly chosen *eligible* machine for it, a uniformly
/// chosen order partner and — when the genome carries P-states
/// (`pstates`) — a uniformly chosen P-state.  Draws nothing when `tasks`
/// is 0.
[[nodiscard]] MutationDraw draw_mutation(const BiObjectiveProblem& problem,
                                         std::size_t tasks, bool pstates,
                                         Rng& rng);

/// Applies a drawn mutation to `a`.  The draw's P-state presence must match
/// the genome's.
void apply_mutation(Allocation& a, const MutationDraw& draw);

/// The paper's mutation: draw_mutation() for `a`'s size and P-state
/// presence, then apply_mutation().  When `touched` is non-null the indices
/// of both affected genes are appended (duplicates possible).
void mutate(Allocation& a, const BiObjectiveProblem& problem, Rng& rng,
            std::vector<std::uint32_t>* touched = nullptr);

/// Rewrites `order` into the permutation 0..T-1 that preserves the current
/// execution sequence (stable by (order, index)).  Optional repair used by
/// the encoding ablation: segment crossover can duplicate order values, and
/// this restores the strict-permutation reading of §IV-D.
void repair_order_permutation(Allocation& a);

}  // namespace eus
