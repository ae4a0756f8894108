#pragma once

// The offline scheduling simulator (§IV-B): replays an allocation against
// the trace and reports total utility earned (Eq. 1), total energy consumed
// (Eq. 2-3), and makespan.  Tasks on each machine run in global-scheduling-
// order sequence; a machine sits idle until a task's arrival if its order
// puts the task at the head early (§IV-D).
//
// Extensions beyond the paper's evaluation (its §VII future work):
//  * task dropping — tasks whose utility at their achievable completion
//    would not exceed a threshold are skipped (no time, no energy);
//  * DVFS — an optional P-state per task scales ETC and EPC.
//
// Hot-path layout (see docs/evaluator.md): the constructor flattens every
// per-task and per-machine lookup the inner loop needs — task type,
// arrival, TUF pointer, ETC/EPC rows resolved against machine *instances*,
// DVFS multipliers, per-machine idle watts, and a (task type x machine)
// eligibility bitset — into contiguous arrays, so simulation touches no
// nested containers and validate() performs no pointer-chasing.
//
// Incremental delta-evaluation: the simulation decomposes exactly per
// machine, so when a genetic operator touches only a few genes the
// evaluator re-simulates just the machines whose task sets, orders, or
// P-states changed (evaluate_incremental) and re-reduces per-machine
// partials (EvalState).  The result is bit-identical to the full
// simulation in every option mode; the full path remains the oracle the
// differential tests compare against.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sched/allocation.hpp"
#include "sched/dvfs.hpp"
#include "sched/eval_state.hpp"
#include "telemetry/metrics.hpp"
#include "tuf/time_utility_function.hpp"
#include "workload/trace.hpp"

namespace eus {

struct EvaluatorOptions {
  bool drop_worthless_tasks = false;
  /// A task is dropped when its utility at completion would be <= this.
  double drop_threshold = 0.0;
  /// When set, Allocation::pstate is honored (empty pstate == nominal).
  std::optional<DvfsModel> dvfs;
  /// Idle power per machine *type* in watts (empty = the paper's model,
  /// which bills busy energy only).  A machine that runs at least one task
  /// additionally draws its idle power over the gaps between time 0 and
  /// its last task's finish; unused machines draw nothing (assumed
  /// powered down).  With idle power, packing work onto fewer machines
  /// can beat pure per-task EEC minimization.
  std::vector<double> idle_watts;
  /// Optional telemetry sink (must outlive the evaluator).  When set, the
  /// evaluator counts evaluations ("evaluator.evaluations"), dropped tasks
  /// ("evaluator.tasks_dropped"), and the delta-path outcome counters
  /// ("evaluator.incremental.hits" / ".fallbacks" /
  /// ".machines_resimulated"); updates are relaxed atomics, safe from the
  /// population-evaluation pool.
  MetricsRegistry* metrics = nullptr;
};

/// Aggregate objectives of one allocation.
struct Evaluation {
  double utility = 0.0;   ///< U, Eq. (1) — maximize
  double energy = 0.0;    ///< total joules (busy + idle) — minimize
  double idle_energy = 0.0;  ///< idle-power share of `energy` (joules)
  double makespan = 0.0;  ///< latest finish time, seconds
  std::size_t dropped = 0;
};

/// Per-task timeline entry (slow path, for reports/examples).
struct TaskOutcome {
  int machine = -1;
  double start = 0.0;
  double finish = 0.0;
  double utility = 0.0;
  double energy = 0.0;
  bool dropped = false;
};

class Evaluator {
 public:
  /// Both referents must outlive the evaluator.
  Evaluator(const SystemModel& system, const Trace& trace,
            EvaluatorOptions options = {});

  /// Fast path: objectives only.  Thread-safe (no shared mutable state);
  /// call it concurrently from the population-evaluation pool.
  ///
  /// Contract: the allocation is validate()d first — a malformed shape, an
  /// out-of-range machine index, an ineligible mapping, or a bad P-state
  /// throws std::invalid_argument instead of indexing out of bounds.
  /// Out-of-range *order* values are fine (orders are free-form
  /// priorities).  NSGA-II offspring skip the check through
  /// evaluate_trusted() and evaluate_incremental(trusted_child).
  [[nodiscard]] Evaluation evaluate(const Allocation& allocation) const;

  /// Full simulation that additionally captures the per-machine partials
  /// needed to delta-evaluate this allocation's descendants.  Same
  /// validation contract as evaluate().
  Evaluation evaluate(const Allocation& allocation, EvalState& state) const;

  /// evaluate(allocation, state) minus the validation pass, for callers
  /// that can prove validity structurally: the genetic operators preserve
  /// it gene-wise (crossover mixes two valid allocations index-aligned,
  /// mutation only draws eligible machines and in-range P-states), so any
  /// descendant of a validated allocation is valid by induction.  Passing
  /// an unvalidated allocation is undefined behavior (out-of-bounds
  /// indexing), not an exception.
  Evaluation evaluate_trusted(const Allocation& allocation,
                              EvalState& state) const;

  /// Incremental re-evaluation of `child`, which differs from `parent`
  /// only at the gene indices in `touched` (duplicates allowed).
  /// `parent_state` must be the EvalState this evaluator produced for
  /// `parent`; `out_state` receives child's state and must not alias
  /// `parent_state`.  Only the machines whose task sets, orders, or
  /// P-states changed are re-simulated; the result is bit-identical to
  /// evaluate(child).  Falls back to the full simulator — still filling
  /// `out_state` — when the delta is large, the shapes diverge, or the
  /// state is invalid.  Touched genes are validated like validate();
  /// untouched genes are trusted (the parent was validated).  With
  /// `trusted_child` the touched-gene validation is skipped too, under the
  /// same structural-validity contract as evaluate_trusted() (gene indices
  /// in `touched` are still range-checked).
  Evaluation evaluate_incremental(const Allocation& child,
                                  const Allocation& parent,
                                  const EvalState& parent_state,
                                  std::span<const std::uint32_t> touched,
                                  EvalState& out_state,
                                  bool trusted_child = false) const;

  /// Slow path: the full per-task timeline plus the aggregate.  Validates
  /// like evaluate().
  [[nodiscard]] std::pair<Evaluation, std::vector<TaskOutcome>> detail(
      const Allocation& allocation) const;

  /// Throws std::invalid_argument when the allocation's shape is wrong,
  /// a machine index is out of range, a task is mapped to an ineligible
  /// machine, or a P-state index is invalid.
  void validate(const Allocation& allocation) const;

  [[nodiscard]] const SystemModel& system() const noexcept { return *system_; }
  [[nodiscard]] const Trace& trace() const noexcept { return *trace_; }
  [[nodiscard]] const EvaluatorOptions& options() const noexcept {
    return options_;
  }

 private:
  /// One task's simulation step against its machine's partial.  Shared by
  /// the full and delta paths so both perform the identical sequence of
  /// floating-point operations (the bit-identity contract).
  template <typename PerTask>
  void step_task(std::uint32_t i, MachinePartial& mp,
                 const Allocation& allocation, bool use_dvfs,
                 PerTask&& per_task) const;

  /// Folds per-machine partials into an Evaluation, always in machine
  /// order — the single reduction both paths share.
  [[nodiscard]] Evaluation reduce(const EvalState& state) const;

  template <typename PerTask>
  Evaluation run(const Allocation& allocation, EvalState& state,
                 PerTask&& per_task) const;

  void validate_gene(const Allocation& allocation, std::size_t gene) const;

  [[nodiscard]] bool eligible_fast(std::uint32_t type,
                                   std::uint32_t machine) const noexcept {
    const std::size_t bit = static_cast<std::size_t>(type) * num_machines_ +
                            machine;
    return (eligible_bits_[bit >> 6U] >> (bit & 63U)) & 1U;
  }

  const SystemModel* system_;
  const Trace* trace_;
  EvaluatorOptions options_;

  // --- structure-of-arrays hot-path data, resolved once at construction.
  /// One flattened TUF interval: the effective [start, end) time window
  /// plus the fraction endpoints and decay shape.  Together with the
  /// per-task priority/residual below, tuf_value() replays the exact
  /// floating-point operation sequence of TimeUtilityFunction::value
  /// without pointer-chasing through per-object interval vectors.
  struct TufSpan {
    double start = 0.0;
    double end = 0.0;
    double begin_fraction = 1.0;
    double end_fraction = 1.0;
    /// log(end_fraction / begin_fraction), precomputed for exponential
    /// spans: the decay is evaluated as exp(f * log_ratio), saving the
    /// std::log per call TimeUtilityFunction::value pays (same expression
    /// and operand bits, so the results match it exactly).  Unused — and
    /// left 0 — for other shapes.
    double log_ratio = 0.0;
    TufInterval::Shape shape = TufInterval::Shape::kLinear;
  };

  /// Per-task hot record: everything step_task() and tuf_value() read
  /// about a task, packed into one 32-byte block.  The simulation walks
  /// tasks in *sequence* order — random by task index — so parallel
  /// per-task arrays cost up to six cold cache lines per step; one aligned
  /// record costs exactly one.  tuf_run packs the span-table offset and
  /// span count 24/8 (the table is deduplicated per TUF class, so both
  /// bounds are enforced cheaply at construction).
  struct alignas(32) TaskRec {
    double arrival = 0.0;
    double tuf_priority = 1.0;
    double tuf_residual = 0.0;  ///< TUF value past the horizon
    std::uint32_t type = 0;
    std::uint32_t tuf_run = 0;  ///< (first span index << 8) | span count
  };
  static_assert(sizeof(TaskRec) == 32);

  [[nodiscard]] double tuf_value(const TaskRec& rec, double elapsed) const
      noexcept;

  std::size_t num_machines_ = 0;
  std::size_t num_tasks_ = 0;
  std::vector<TaskRec> task_rec_;  ///< per task (cache-line packed)
  /// Flattened TUF table: tasks sharing a TUF object share one span run.
  std::vector<TufSpan> tuf_spans_;
  /// ETC/EPC against machine *instances*, interleaved per row so one line
  /// serves both loads: [2 * (type * num_machines_ + m)] = ETC seconds,
  /// [... + 1] = EPC watts.
  std::vector<double> cost_tm_;
  /// Eligibility bitset, bit index = type * num_machines_ + m.
  std::vector<std::uint64_t> eligible_bits_;
  /// Idle watts per machine instance (empty when idle billing is off).
  std::vector<double> idle_watts_m_;
  /// DVFS multipliers per P-state (empty when no DVFS model).
  std::vector<double> dvfs_time_;
  std::vector<double> dvfs_power_;

  /// Resolved once at construction so the hot path never does name lookups.
  Counter* metric_evaluations_ = nullptr;
  Counter* metric_dropped_ = nullptr;
  Counter* metric_inc_hits_ = nullptr;
  Counter* metric_inc_fallbacks_ = nullptr;
  Counter* metric_inc_machines_ = nullptr;
};

}  // namespace eus
