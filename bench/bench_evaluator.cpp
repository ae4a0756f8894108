// Evaluator microbenchmarks: full-simulation throughput, the incremental
// delta path, and the delta-size sweep that shows where the evaluator
// falls back to a full pass.  All three run on dataset 3 (4000 tasks, 30
// machines) — the workload whose inner loop the SoA layout and
// delta-evaluator exist for (docs/evaluator.md).

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <vector>

#include "benchkit/registry.hpp"
#include "sched/eval_state.hpp"
#include "sched/evaluator.hpp"
#include "telemetry/metrics.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/scenarios.hpp"

namespace {

using namespace eus;

const Scenario& dataset3() {
  static const Scenario s = make_dataset3(1);
  return s;
}

/// EUS_SCALE-scaled repetition count with a floor that keeps the
/// per-evaluation medians meaningful.
std::size_t scaled_evals(double base) {
  const double n = base * bench_scale();
  return n < 64.0 ? 64 : static_cast<std::size_t>(n);
}

Allocation random_valid_allocation(const SystemModel& sys,
                                   const Trace& trace, Rng& rng) {
  const std::size_t n = trace.size();
  Allocation a;
  a.machine.resize(n);
  a.order.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& eligible = sys.eligible_machines(trace.tasks()[i].type);
    a.machine[i] = eligible[rng.below(eligible.size())];
    a.order[i] = static_cast<int>(rng.below(n));
  }
  return a;
}

/// Edits `genes` random genes in place, recording them in `touched`.
void touch_genes(Allocation& child, const SystemModel& sys,
                 const Trace& trace, Rng& rng, std::size_t genes,
                 std::vector<std::uint32_t>& touched) {
  const std::size_t n = child.machine.size();
  touched.clear();
  for (std::size_t k = 0; k < genes; ++k) {
    const auto g = static_cast<std::uint32_t>(rng.below(n));
    if (rng.below(2) == 0) {
      const auto& eligible = sys.eligible_machines(trace.tasks()[g].type);
      child.machine[g] = eligible[rng.below(eligible.size())];
    } else {
      child.order[g] = static_cast<int>(rng.below(n));
    }
    touched.push_back(g);
  }
}

double us_per(std::chrono::steady_clock::duration elapsed,
              std::size_t count) {
  return std::chrono::duration<double, std::micro>(elapsed).count() /
         static_cast<double>(count == 0 ? 1 : count);
}

}  // namespace

EUS_BENCHMARK(evaluator_full,
              "full-simulation throughput on dataset 3: distinct random "
              "genomes through Evaluator::evaluate (EUS_SCALE)") {
  const Scenario& s = dataset3();
  EvaluatorOptions options;
  options.metrics = ctx.metrics;
  const Evaluator ev(s.system, s.trace, options);

  const std::size_t evals = scaled_evals(100000.0);
  Rng rng(7);
  std::vector<Allocation> genomes;
  genomes.reserve(evals);
  for (std::size_t k = 0; k < evals; ++k) {
    genomes.push_back(random_valid_allocation(s.system, s.trace, rng));
  }

  double sink = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const Allocation& a : genomes) sink += ev.evaluate(a).energy;
  const auto t1 = std::chrono::steady_clock::now();

  std::cout << "== evaluator_full — " << s.name << " ==\n"
            << "tasks: " << s.trace.size()
            << ", machines: " << s.system.num_machines() << '\n'
            << evals << " full evaluations, " << us_per(t1 - t0, evals)
            << " us/eval (checksum " << sink << ")\n";
  return 0;
}

EUS_BENCHMARK(evaluator_incremental,
              "incremental delta path on dataset 3: 2-gene children "
              "(the typical mutation delta) against a cached parent "
              "state (EUS_SCALE)") {
  const Scenario& s = dataset3();
  EvaluatorOptions options;
  options.metrics = ctx.metrics;
  const Evaluator ev(s.system, s.trace, options);

  const std::size_t evals = scaled_evals(100000.0);
  Rng rng(11);
  const Allocation parent = random_valid_allocation(s.system, s.trace, rng);
  EvalState parent_state;
  ev.evaluate(parent, parent_state);

  // Pre-build the children so the timed loop is evaluation only.
  // Mutation edits one or two genes; crossover deltas are larger but get
  // filtered against the parent gene-wise.  Two touched genes is the
  // typical surviving hint (see evaluator_delta_sweep for the full curve).
  constexpr std::size_t kTouched = 2;
  std::vector<Allocation> children(evals, parent);
  std::vector<std::vector<std::uint32_t>> touched(evals);
  for (std::size_t k = 0; k < evals; ++k) {
    touch_genes(children[k], s.system, s.trace, rng, kTouched, touched[k]);
  }

  double sink = 0.0;
  EvalState out;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < evals; ++k) {
    sink += ev.evaluate_incremental(children[k], parent, parent_state,
                                    touched[k], out)
                .energy;
  }
  const auto t1 = std::chrono::steady_clock::now();

  const auto t2 = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < evals; ++k) {
    sink += ev.evaluate(children[k]).energy;
  }
  const auto t3 = std::chrono::steady_clock::now();

  const double delta_us = us_per(t1 - t0, evals);
  const double full_us = us_per(t3 - t2, evals);
  std::cout << "== evaluator_incremental — " << s.name << " ==\n"
            << evals << " x " << kTouched << "-gene deltas: " << delta_us
            << " us/eval vs " << full_us << " us/eval full ("
            << (delta_us > 0.0 ? full_us / delta_us : 0.0)
            << "x, checksum " << sink << ")\n";
  return 0;
}

EUS_BENCHMARK(evaluator_delta_sweep,
              "delta-size sweep on dataset 3: per-eval time vs touched "
              "genes, through the fallback crossover (EUS_SCALE)") {
  const Scenario& s = dataset3();
  // The delta-share column reads the evaluator's own outcome counters, so
  // it needs a registry even when the harness passes none.
  MetricsRegistry local;
  MetricsRegistry& metrics = ctx.metrics != nullptr ? *ctx.metrics : local;
  EvaluatorOptions options;
  options.metrics = &metrics;
  const Evaluator ev(s.system, s.trace, options);
  const Counter& hits = metrics.counter("evaluator.incremental.hits");
  const Counter& fallbacks =
      metrics.counter("evaluator.incremental.fallbacks");

  const std::size_t per_size = std::max<std::size_t>(16, scaled_evals(8000.0));
  Rng rng(13);
  const Allocation parent = random_valid_allocation(s.system, s.trace, rng);
  EvalState parent_state;
  ev.evaluate(parent, parent_state);

  std::cout << "== evaluator_delta_sweep — " << s.name << " ==\n";
  AsciiTable table({"touched genes", "us/eval", "delta share"});
  double sink = 0.0;
  for (const std::size_t genes :
       {std::size_t{1}, std::size_t{4}, std::size_t{16}, std::size_t{64},
        std::size_t{256}, std::size_t{1024}, s.trace.size() / 2 + 1}) {
    std::vector<Allocation> children(per_size, parent);
    std::vector<std::vector<std::uint32_t>> touched(per_size);
    for (std::size_t k = 0; k < per_size; ++k) {
      touch_genes(children[k], s.system, s.trace, rng, genes, touched[k]);
    }
    EvalState out;
    const std::uint64_t hits0 = hits.value();
    const std::uint64_t fallbacks0 = fallbacks.value();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t k = 0; k < per_size; ++k) {
      sink += ev.evaluate_incremental(children[k], parent, parent_state,
                                      touched[k], out)
                  .energy;
    }
    const auto t1 = std::chrono::steady_clock::now();
    // The share of this row's calls the cost rule let take the delta.
    const std::uint64_t row_hits = hits.value() - hits0;
    const std::uint64_t row_calls = row_hits + fallbacks.value() - fallbacks0;
    table.add_row({std::to_string(genes),
                   format_double(us_per(t1 - t0, per_size), 2),
                   format_double(row_calls == 0
                                     ? 0.0
                                     : static_cast<double>(row_hits) /
                                           static_cast<double>(row_calls),
                                 2)});
  }
  std::cout << table.render() << "(checksum " << sink << ")\n";
  return 0;
}
