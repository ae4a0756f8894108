#include "sched/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <type_traits>

namespace eus {

namespace {

// The cost rule's budget: a delta is taken only while its estimate (genes
// fed plus the base state's tasks on every dirty machine) is at most
// 1/kDeltaBudgetDivisor of the trace.  A quarter measured best end to end
// when the full pass stepped each task whole: it beat half the trace on
// dataset 1 (262 vs 275 ms a study, 5/5 seeds) and matched it on dataset
// 3 (233 vs 239 ms).  The three-sweep full pass is cheaper while a delta
// still steps each task, so on dataset 3 a hot NSGA-II child's delta now
// takes 0.52 of a full pass's time at a quarter of the trace (0.39
// before) and 0.97 near half (0.74 before), and a delta of 4 random genes
// on a random parent costs more than a full pass.  Moving the budget is
// an end-to-end claim of its own.  See EXPERIMENTS.md, "Cost-aware delta
// dispatch" and "Full evaluation in three sweeps".
constexpr std::size_t kDeltaBudgetDivisor = 4;

}  // namespace

Evaluator::Evaluator(const SystemModel& system, const Trace& trace,
                     EvaluatorOptions options)
    : system_(&system), trace_(&trace), options_(std::move(options)) {
  trace.validate_against(system);
  if (!options_.idle_watts.empty()) {
    if (options_.idle_watts.size() != system.num_machine_types()) {
      throw std::invalid_argument("idle_watts must cover every machine type");
    }
    for (const double w : options_.idle_watts) {
      if (!(w >= 0.0)) throw std::invalid_argument("negative idle wattage");
    }
  }

  // Structure-of-arrays resolution: one pass at construction so the
  // simulation loop reads only flat arrays (docs/evaluator.md).
  num_machines_ = system.num_machines();
  num_tasks_ = trace.size();
  delta_budget_ = num_tasks_ / kDeltaBudgetDivisor;
  const std::size_t types = system.num_task_types();

  task_rec_.resize(num_tasks_);
  // Tasks share TUF objects, one per class of the trace's library, so the
  // span table is deduplicated by class into span runs — shared runs keep
  // the table small and hot in cache — and the same lookup groups the
  // tasks by run for the utility sweep.
  constexpr std::uint32_t kNoRun = 0xFFFFFFFFU;
  const std::size_t classes = trace.tuf_classes().classes().size();
  std::vector<std::uint32_t> run_of_class(classes, kNoRun);
  for (std::size_t i = 0; i < num_tasks_; ++i) {
    const TaskInstance& task = trace.tasks()[i];
    TaskRec& rec = task_rec_[i];
    rec.type = static_cast<std::uint32_t>(task.type);
    rec.arrival = task.arrival;

    const TimeUtilityFunction& f = trace.tuf_of(i);
    rec.tuf_priority = f.priority();
    rec.tuf_residual = f.residual();
    std::uint32_t& run_index = run_of_class[task.tuf_class];
    if (run_index == kNoRun) {
      run_index = static_cast<std::uint32_t>(tuf_runs_.size());
      // 24/8 packing limits: the deduplicated span table stays far below
      // 2^24 entries and per-TUF interval counts far below 2^8 for any
      // real workload; refuse construction rather than silently truncate.
      if (tuf_spans_.size() > 0xFFFFFFU || f.intervals().size() > 0xFFU) {
        throw std::invalid_argument("TUF span table too large to pack");
      }
      TufRun run;
      run.first_span = static_cast<std::uint32_t>(tuf_spans_.size());
      run.span_count = static_cast<std::uint32_t>(f.intervals().size());
      run.residual = f.residual();
      // Effective boundaries recomputed with the constructor's exact
      // expression, so tuf_value() sees bit-identical span edges.
      double t = 0.0;
      for (const TufInterval& iv : f.intervals()) {
        TufSpan span;
        span.start = t;
        t += iv.duration / (f.urgency() * iv.urgency_modifier);
        span.end = t;
        span.begin_fraction = iv.begin_fraction;
        span.end_fraction = iv.end_fraction;
        span.shape = iv.shape;
        if (iv.shape == TufInterval::Shape::kExponential) {
          // The exact operand TimeUtilityFunction::value feeds std::log.
          span.log_ratio = std::log(iv.end_fraction / iv.begin_fraction);
        }
        tuf_spans_.push_back(span);
      }
      run.horizon = t;
      tuf_runs_.push_back(run);
    }
    TufRun& run = tuf_runs_[run_index];
    ++run.task_count;
    rec.tuf_run = (run.first_span << 8U) | run.span_count;
  }

  // The run lists, by counting sort on the run: each run's slice starts
  // where the previous one ends, and filling it in index order keeps its
  // tasks in index order.
  std::vector<std::uint32_t> next_slot(tuf_runs_.size());
  std::uint32_t offset = 0;
  for (std::size_t r = 0; r < tuf_runs_.size(); ++r) {
    tuf_runs_[r].first_task = offset;
    next_slot[r] = offset;
    offset += tuf_runs_[r].task_count;
  }
  run_tasks_.resize(num_tasks_);
  run_priority_.resize(num_tasks_);
  for (std::size_t i = 0; i < num_tasks_; ++i) {
    const std::uint32_t slot =
        next_slot[run_of_class[trace.tasks()[i].tuf_class]]++;
    run_tasks_[slot] = static_cast<std::uint32_t>(i);
    run_priority_[slot] = task_rec_[i].tuf_priority;
  }

  cost_tm_.resize(2 * types * num_machines_);
  eligible_bits_.assign((types * num_machines_ + 63U) / 64U, 0U);
  for (std::size_t t = 0; t < types; ++t) {
    for (std::size_t m = 0; m < num_machines_; ++m) {
      cost_tm_[2 * (t * num_machines_ + m)] = system.etc_on(t, m);
      cost_tm_[2 * (t * num_machines_ + m) + 1] = system.epc_on(t, m);
      if (system.eligible(t, m)) {
        const std::size_t bit = t * num_machines_ + m;
        eligible_bits_[bit >> 6U] |= std::uint64_t{1} << (bit & 63U);
      }
    }
  }

  if (!options_.idle_watts.empty()) {
    idle_watts_m_.resize(num_machines_);
    for (std::size_t m = 0; m < num_machines_; ++m) {
      idle_watts_m_[m] = options_.idle_watts[static_cast<std::size_t>(
          system.machines()[m].type)];
    }
  }

  if (options_.dvfs) {
    const std::size_t pstates = options_.dvfs->size();
    dvfs_time_.resize(pstates);
    dvfs_power_.resize(pstates);
    for (std::size_t p = 0; p < pstates; ++p) {
      dvfs_time_[p] = options_.dvfs->time_multiplier(p);
      dvfs_power_[p] = options_.dvfs->power_multiplier(p);
    }
  }

  if (options_.metrics != nullptr) {
    metric_evaluations_ = &options_.metrics->counter("evaluator.evaluations");
    metric_dropped_ = &options_.metrics->counter("evaluator.tasks_dropped");
    metric_inc_hits_ =
        &options_.metrics->counter("evaluator.incremental.hits");
    metric_inc_fallbacks_ =
        &options_.metrics->counter("evaluator.incremental.fallbacks");
    metric_inc_machines_ = &options_.metrics->counter(
        "evaluator.incremental.machines_resimulated");
  }
}

void Evaluator::validate_gene(const Allocation& allocation,
                              std::size_t gene) const {
  const int m = allocation.machine[gene];
  if (m < 0 || static_cast<std::size_t>(m) >= num_machines_) {
    throw std::invalid_argument("machine index out of range");
  }
  if (!eligible_fast(task_rec_[gene].type, static_cast<std::uint32_t>(m))) {
    throw std::invalid_argument("task mapped to ineligible machine");
  }
  if (!allocation.pstate.empty()) {
    const int p = allocation.pstate[gene];
    if (p < 0 || static_cast<std::size_t>(p) >= dvfs_time_.size()) {
      throw std::invalid_argument("pstate index out of range");
    }
  }
}

void Evaluator::validate(const Allocation& allocation) const {
  const std::size_t tasks = num_tasks_;
  if (allocation.machine.size() != tasks ||
      allocation.order.size() != tasks) {
    throw std::invalid_argument("allocation size mismatch");
  }
  if (!allocation.pstate.empty() && allocation.pstate.size() != tasks) {
    throw std::invalid_argument("pstate size mismatch");
  }
  if (!allocation.pstate.empty() && !options_.dvfs) {
    throw std::invalid_argument("pstates present but no DVFS model");
  }
  for (std::size_t i = 0; i < tasks; ++i) {
    validate_gene(allocation, i);
  }
}

double Evaluator::span_value(std::span<const TufSpan> spans, double priority,
                             double residual, double elapsed) noexcept {
  // Bit-identical replay of TimeUtilityFunction::value over the flattened
  // span table (same expressions, same order — see docs/evaluator.md).
  if (elapsed < 0.0) elapsed = 0.0;
  for (const TufSpan& span : spans) {
    if (elapsed < span.end) {
      const double width = span.end - span.start;
      const double f = width > 0.0 ? (elapsed - span.start) / width : 1.0;
      switch (span.shape) {
        case TufInterval::Shape::kConstant:
          return priority * span.begin_fraction;
        case TufInterval::Shape::kLinear:
          return priority * (span.begin_fraction +
                             (span.end_fraction - span.begin_fraction) * f);
        case TufInterval::Shape::kExponential:
          // b * (e/b)^f via exp(f * log(e/b)) with the log precomputed at
          // construction — bit-identical to TimeUtilityFunction::value,
          // which evaluates the same expression on the same operands.
          return priority * span.begin_fraction *
                 std::exp(f * span.log_ratio);
      }
    }
  }
  return residual;
}

double Evaluator::tuf_value(const TaskRec& rec, double elapsed) const
    noexcept {
  const std::span<const TufSpan> table(tuf_spans_);
  return span_value(table.subspan(rec.tuf_run >> 8U, rec.tuf_run & 0xFFU),
                    rec.tuf_priority, rec.tuf_residual, elapsed);
}

std::pair<double, double> Evaluator::exec_and_power(
    const TaskRec& rec, std::uint32_t i, const Allocation& allocation,
    bool use_dvfs) const noexcept {
  const std::size_t row =
      2 * (static_cast<std::size_t>(rec.type) * num_machines_ +
           static_cast<std::size_t>(allocation.machine[i]));
  double exec = cost_tm_[row];
  double power = cost_tm_[row + 1];
  if (use_dvfs) {
    const auto p = static_cast<std::size_t>(allocation.pstate[i]);
    exec *= dvfs_time_[p];
    power *= dvfs_power_[p];
  }
  return {exec, power};
}

template <typename PerTask>
void Evaluator::step_task(std::uint32_t i, MachinePartial& mp,
                          const Allocation& allocation, bool use_dvfs,
                          PerTask&& per_task) const {
  const TaskRec& rec = task_rec_[i];
  const auto [exec, power] = exec_and_power(rec, i, allocation, use_dvfs);

  ++mp.count;
  const double arrival = rec.arrival;
  const double start = std::max(mp.tail, arrival);
  const double finish = start + exec;
  const double utility = tuf_value(rec, finish - arrival);

  if (options_.drop_worthless_tasks && utility <= options_.drop_threshold) {
    ++mp.dropped;
    per_task(i, TaskOutcome{allocation.machine[i], 0.0, 0.0, 0.0, 0.0,
                            true});
    return;
  }

  mp.tail = finish;
  mp.busy += exec;
  const double energy = exec * power;  // EEC, Eq. (2)
  mp.utility += utility;
  mp.energy += energy;
  per_task(i, TaskOutcome{allocation.machine[i], start, finish, utility,
                          energy, false});
}

Evaluation Evaluator::reduce(const EvalState& state) const {
  Evaluation total;
  for (std::size_t m = 0; m < state.machines.size(); ++m) {
    const MachinePartial& mp = state.machines[m];
    total.utility += mp.utility;
    total.energy += mp.energy;
    total.makespan = std::max(total.makespan, mp.tail);
    total.dropped += mp.dropped;
  }
  if (!idle_watts_m_.empty()) {
    // A used machine is powered from t = 0 until its queue drains; gaps
    // (waiting for arrivals) bill at the machine type's idle wattage.
    for (std::size_t m = 0; m < state.machines.size(); ++m) {
      const MachinePartial& mp = state.machines[m];
      if (mp.tail <= 0.0) continue;  // never used
      total.idle_energy += idle_watts_m_[m] * (mp.tail - mp.busy);
    }
    total.energy += total.idle_energy;
  }
  return total;
}

template <typename PerTask>
Evaluation Evaluator::run(const Allocation& allocation, EvalState& state,
                          PerTask&& per_task) const {
  const std::size_t tasks = num_tasks_;

  // Execution sequence: global scheduling order, ties broken by index
  // (stable), independent of arrival times (§IV-D).  Orders produced by the
  // genetic operators always stay within [0, T), so a stable counting sort
  // covers the hot path; arbitrary user-supplied orders fall back to a
  // comparison sort.  Scratch is thread_local: evaluate() runs concurrently
  // on the population-evaluation pool.
  thread_local std::vector<std::uint32_t> sequence;
  sequence.resize(tasks);
  // Range check fused into the counting pass: a negative order wraps to a
  // huge unsigned value, so one unsigned compare covers both ends.
  thread_local std::vector<std::uint32_t> offsets;
  offsets.assign(tasks + 1, 0);
  bool orders_in_range = true;
  for (std::size_t i = 0; i < tasks; ++i) {
    const auto o = static_cast<std::uint32_t>(allocation.order[i]);
    if (o >= tasks) {
      orders_in_range = false;
      break;
    }
    ++offsets[o + 1];
  }
  if (orders_in_range) {
    for (std::size_t k = 1; k <= tasks; ++k) offsets[k] += offsets[k - 1];
    // Visiting tasks in index order keeps equal-order ties index-stable.
    for (std::size_t i = 0; i < tasks; ++i) {
      sequence[offsets[static_cast<std::size_t>(allocation.order[i])]++] =
          static_cast<std::uint32_t>(i);
    }
  } else {
    std::iota(sequence.begin(), sequence.end(), 0U);
    std::sort(sequence.begin(), sequence.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const int oa = allocation.order[a];
                const int ob = allocation.order[b];
                return oa != ob ? oa < ob : a < b;
              });
  }

  const bool use_dvfs =
      options_.dvfs.has_value() && !allocation.pstate.empty();

  state.machines.assign(num_machines_, MachinePartial{});
  // Whether a dropped task runs depends on its utility, so with dropping
  // on each task takes one whole step, as it does for a caller that
  // records every outcome.
  constexpr bool kRecords =
      !std::is_same_v<std::remove_cvref_t<PerTask>, NoOutcome>;
  if (!kRecords && !options_.drop_worthless_tasks) {
    sweep(allocation, sequence, use_dvfs, state);
  } else {
    for (const std::uint32_t i : sequence) {
      const auto m = static_cast<std::size_t>(allocation.machine[i]);
      step_task(i, state.machines[m], allocation, use_dvfs, per_task);
    }
  }

  const Evaluation total = reduce(state);
  if (metric_evaluations_ != nullptr) {
    metric_evaluations_->add(1);
    if (total.dropped != 0) metric_dropped_->add(total.dropped);
  }
  return total;
}

void Evaluator::sweep(const Allocation& allocation,
                      std::span<const std::uint32_t> sequence, bool use_dvfs,
                      EvalState& state) const {
  // Per task: its elapsed time after the schedule sweep, its utility after
  // the utility sweep.
  thread_local std::vector<double> task_value;
  task_value.resize(num_tasks_);

  // Schedule sweep: step_task's tail, busy-time, energy and count updates.
  for (const std::uint32_t i : sequence) {
    const TaskRec& rec = task_rec_[i];
    const auto [exec, power] = exec_and_power(rec, i, allocation, use_dvfs);
    MachinePartial& mp =
        state.machines[static_cast<std::size_t>(allocation.machine[i])];
    ++mp.count;
    const double finish = std::max(mp.tail, rec.arrival) + exec;
    mp.tail = finish;
    mp.busy += exec;
    mp.energy += exec * power;  // EEC, Eq. (2)
    task_value[i] = finish - rec.arrival;
  }

  // Utility sweep, one span run at a time: its spans, horizon and residual
  // are read once, and the span walk's branches follow one TUF's shape
  // instead of whichever class the next task in scheduling order has.  A
  // task not below the horizon takes the residual without a walk, which
  // is what the walk would return.
  const std::span<const TufSpan> table(tuf_spans_);
  for (const TufRun& run : tuf_runs_) {
    const auto spans = table.subspan(run.first_span, run.span_count);
    const std::uint32_t end = run.first_task + run.task_count;
    for (std::uint32_t k = run.first_task; k < end; ++k) {
      double& value = task_value[run_tasks_[k]];
      value = value < run.horizon
                  ? span_value(spans, run_priority_[k], run.residual, value)
                  : run.residual;
    }
  }

  // Accumulation sweep, in scheduling order again: each machine adds its
  // tasks' utilities in its own execution order, as step_task would.
  for (const std::uint32_t i : sequence) {
    const auto m = static_cast<std::size_t>(allocation.machine[i]);
    state.machines[m].utility += task_value[i];
  }
}

Evaluation Evaluator::evaluate(const Allocation& allocation) const {
  validate(allocation);
  thread_local EvalState scratch;
  return run(allocation, scratch, NoOutcome{});
}

Evaluation Evaluator::evaluate(const Allocation& allocation,
                               EvalState& state) const {
  validate(allocation);
  return run(allocation, state, NoOutcome{});
}

Evaluation Evaluator::evaluate_trusted(const Allocation& allocation,
                                       EvalState& state) const {
  return run(allocation, state, NoOutcome{});
}

Evaluation Evaluator::evaluate_incremental(
    const Allocation& child, const Allocation& parent,
    const EvalState& parent_state, std::span<const std::uint32_t> touched,
    EvalState& out_state, bool trusted_child) const {
  // When the shapes diverged nothing about the child can be trusted, so
  // the fallback validates all of it.
  const auto full_fallback = [&]() {
    if (metric_inc_fallbacks_ != nullptr) metric_inc_fallbacks_->add(1);
    validate(child);
    return run(child, out_state, NoOutcome{});
  };
  if (parent_state.machines.size() != num_machines_ ||
      child.machine.size() != num_tasks_ ||
      child.order.size() != num_tasks_ ||
      child.machine.size() != parent.machine.size() ||
      child.order.size() != parent.order.size() ||
      child.pstate.size() != parent.pstate.size()) {
    return full_fallback();
  }
  if (!child.pstate.empty() &&
      (child.pstate.size() != num_tasks_ || !options_.dvfs)) {
    return full_fallback();
  }

  // Every touched gene is validated, also past the budget; the untouched
  // remainder is byte-identical to the validated parent.  Listed genes
  // that do not differ cost nothing.
  thread_local DeltaPlan plan;
  begin_delta(parent_state, plan);
  for (const std::uint32_t g : touched) {
    if (g >= num_tasks_) {
      throw std::invalid_argument("touched gene index out of range");
    }
    if (!trusted_child) validate_gene(child, g);
    const int pm = parent.machine[g];
    if (pm < 0 || static_cast<std::size_t>(pm) >= num_machines_) {
      return full_fallback();  // parent violates its own contract
    }
    plan_genes(plan, child, parent, g, g);
  }
  return evaluate_planned(child, plan, out_state);
}

void Evaluator::begin_delta(const EvalState& base_state,
                            DeltaPlan& plan) const {
  plan.base_state_ = &base_state;
  plan.dirty_flag_.assign(num_machines_, 0);
  plan.dirty_list_.clear();
  plan.estimate_ = 0;
  plan.over_budget_ = base_state.machines.size() != num_machines_;
}

bool Evaluator::plan_genes(DeltaPlan& plan, const Allocation& child,
                           const Allocation& base, std::size_t lo,
                           std::size_t hi) const {
  // Dirty machines: every machine that gained, lost, re-ordered, or
  // re-clocked a task.  The base state's populations are off by at most
  // the genes fed, which the estimate counts too.
  const auto mark = [&](int machine) {
    const auto m = static_cast<std::uint32_t>(machine);
    if (plan.dirty_flag_[m] != 0) return;
    plan.dirty_flag_[m] = 1;
    plan.dirty_list_.push_back(m);
    plan.estimate_ += plan.base_state_->machines[m].count;
  };
  const bool pstates = !child.pstate.empty();
  for (std::size_t g = lo; g <= hi && !plan.over_budget_; ++g) {
    if (child.machine[g] == base.machine[g] &&
        child.order[g] == base.order[g] &&
        (!pstates || child.pstate[g] == base.pstate[g])) {
      continue;
    }
    ++plan.estimate_;
    mark(child.machine[g]);
    mark(base.machine[g]);
    plan.over_budget_ = plan.estimate_ > delta_budget_;
  }
  return !plan.over_budget_;
}

Evaluation Evaluator::evaluate_planned(const Allocation& child,
                                       const DeltaPlan& plan,
                                       EvalState& out_state) const {
  if (plan.over_budget_) {
    if (metric_inc_fallbacks_ != nullptr) metric_inc_fallbacks_->add(1);
    return run(child, out_state, NoOutcome{});
  }

  // Bucket the dirty machines' tasks (child mapping) per machine in index
  // order, then sort each bucket by (order, index) — exactly the stable
  // sequence the full simulator's counting sort produces for that machine.
  // Machines are independent, so no cross-machine ordering is needed; the
  // per-bucket sorts replace a much costlier global three-key sort.
  thread_local std::vector<std::vector<std::uint32_t>> buckets;
  buckets.resize(num_machines_);
  for (const std::uint32_t m : plan.dirty_list_) buckets[m].clear();
  for (std::size_t i = 0; i < num_tasks_; ++i) {
    const auto m = static_cast<std::size_t>(child.machine[i]);
    if (plan.dirty_flag_[m] != 0) {
      buckets[m].push_back(static_cast<std::uint32_t>(i));
    }
  }

  out_state = *plan.base_state_;
  const bool use_dvfs = options_.dvfs.has_value() && !child.pstate.empty();
  // Sort each bucket by (order, index) on packed 64-bit keys — one
  // sequential gather, then a comparator-free sort — rather than a lambda
  // re-reading order[] per comparison.  XORing the sign bit maps signed
  // order comparison onto the unsigned key compare; the low word breaks
  // ties by index, so the sequence is exactly the one the full
  // simulator's stable counting sort produces for that machine.
  thread_local std::vector<std::uint64_t> keys;
  for (const std::uint32_t m : plan.dirty_list_) {
    const std::vector<std::uint32_t>& bucket = buckets[m];
    keys.clear();
    keys.reserve(bucket.size());
    for (const std::uint32_t i : bucket) {
      keys.push_back(
          (static_cast<std::uint64_t>(
               static_cast<std::uint32_t>(child.order[i]) ^ 0x80000000U)
           << 32U) |
          i);
    }
    std::sort(keys.begin(), keys.end());
    MachinePartial& mp = out_state.machines[m];
    mp = MachinePartial{};
    for (const std::uint64_t key : keys) {
      step_task(static_cast<std::uint32_t>(key), mp, child, use_dvfs,
                NoOutcome{});
    }
  }

  const Evaluation total = reduce(out_state);
  if (metric_evaluations_ != nullptr) {
    metric_evaluations_->add(1);
    if (total.dropped != 0) metric_dropped_->add(total.dropped);
  }
  if (metric_inc_hits_ != nullptr) {
    metric_inc_hits_->add(1);
    metric_inc_machines_->add(plan.dirty_list_.size());
  }
  return total;
}

std::pair<Evaluation, std::vector<TaskOutcome>> Evaluator::detail(
    const Allocation& allocation) const {
  validate(allocation);
  std::vector<TaskOutcome> outcomes(trace_->size());
  thread_local EvalState scratch;
  Evaluation total = run(allocation, scratch, [&](std::uint32_t i,
                                                  const TaskOutcome& o) {
    outcomes[i] = o;
  });
  return {total, std::move(outcomes)};
}

}  // namespace eus
