#pragma once

// The bi-objective resource-allocation problem interface consumed by the
// NSGA-II.  A problem is an Evaluator (the §IV-B simulator) plus an
// objective mapping: objectives_of reads a simulator Evaluation as an
// EUPoint, where `energy` is minimized and `utility` maximized (Figure 2's
// axes).  Problems with different semantics map into that convention (see
// MakespanEnergyProblem).

#include <cstddef>
#include <utility>

#include "pareto/point.hpp"
#include "sched/evaluator.hpp"

namespace eus {

class BiObjectiveProblem {
 public:
  /// Both referents must outlive the problem.
  BiObjectiveProblem(const SystemModel& system, const Trace& trace,
                     EvaluatorOptions options)
      : evaluator_(system, trace, std::move(options)) {}
  virtual ~BiObjectiveProblem() = default;

  /// Maps a simulator Evaluation into this problem's (energy, utility)
  /// point.  Optimizers evaluate through evaluator() (full or delta path)
  /// and map the result here, so every path yields evaluate()'s point bit
  /// for bit.
  [[nodiscard]] virtual EUPoint objectives_of(const Evaluation& e) const = 0;

  /// Objective values of a complete allocation, validated first.
  /// Thread-safe.
  [[nodiscard]] EUPoint evaluate(const Allocation& allocation) const {
    return objectives_of(evaluator_.evaluate(allocation));
  }

  /// Number of genes (== trace size).
  [[nodiscard]] std::size_t genome_size() const noexcept {
    return evaluator_.trace().size();
  }

  /// Catalog access for genetic operators (eligibility, arrival times).
  [[nodiscard]] const SystemModel& system() const noexcept {
    return evaluator_.system();
  }
  [[nodiscard]] const Trace& trace() const noexcept {
    return evaluator_.trace();
  }

  /// Number of DVFS P-states a pstate gene may take; 0 disables the gene.
  [[nodiscard]] std::size_t num_pstates() const noexcept {
    return evaluator_.options().dvfs ? evaluator_.options().dvfs->size() : 0;
  }

  [[nodiscard]] const Evaluator& evaluator() const noexcept {
    return evaluator_;
  }

 private:
  Evaluator evaluator_;
};

/// The paper's primary problem: maximize total utility earned, minimize
/// total energy consumed (§IV-B).
class UtilityEnergyProblem final : public BiObjectiveProblem {
 public:
  UtilityEnergyProblem(const SystemModel& system, const Trace& trace,
                       EvaluatorOptions options = {})
      : BiObjectiveProblem(system, trace, std::move(options)) {}

  [[nodiscard]] EUPoint objectives_of(const Evaluation& e) const override {
    return {e.energy, e.utility};
  }
};

/// The predecessor baseline (Friese et al., INFOCOMP 2012, the paper's
/// ref [3]): minimize makespan and energy.  Makespan enters the EUPoint as
/// utility = -makespan so "maximize utility" == "minimize makespan".
class MakespanEnergyProblem final : public BiObjectiveProblem {
 public:
  MakespanEnergyProblem(const SystemModel& system, const Trace& trace,
                        EvaluatorOptions options = {})
      : BiObjectiveProblem(system, trace, std::move(options)) {}

  [[nodiscard]] EUPoint objectives_of(const Evaluation& e) const override {
    return {e.energy, -e.makespan};
  }
};

}  // namespace eus
