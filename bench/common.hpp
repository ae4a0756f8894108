#pragma once

// Shared harness glue for the figure benches: runs a seeding study over a
// scenario, prints progress, renders each checkpoint's fronts as an ASCII
// scatter (the paper's subplots), and emits machine-readable CSV blocks
// (population, iterations, energy_J, utility) for external plotting, plus a
// JSONL run record (config, per-checkpoint fronts, metric snapshots — see
// EXPERIMENTS.md for the schema).
//
// Iteration schedules are the paper's, scaled by a per-bench default times
// the EUS_SCALE environment knob (EXPERIMENTS.md documents the scaling).
// All populations evolve concurrently on a shared pool sized by
// EUS_THREADS (0 = hardware concurrency, the default; 1 = serial).  The
// fronts are bit-identical at any thread count.

#include <cctype>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "benchkit/registry.hpp"
#include "core/study.hpp"
#include "core/study_engine.hpp"
#include "pareto/knee.hpp"
#include "pareto/metrics.hpp"
#include "sched/bounds.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_recorder.hpp"
#include "util/ascii_plot.hpp"
#include "workload/analysis.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "util/stopwatch.hpp"
#include "workload/scenarios.hpp"

namespace eus::bench {

struct FigureSpec {
  std::string figure;                    ///< e.g. "Figure 3"
  std::vector<std::size_t> paper_iters;  ///< the paper's checkpoint schedule
  double default_scale = 1.0;           ///< per-bench shrink factor
  std::size_t population = 100;         ///< paper's N
};

inline Nsga2Config figure_config(std::uint64_t seed, std::size_t population) {
  Nsga2Config config;
  config.population_size = population;
  config.mutation_probability = 0.25;
  // Nested evaluation parallelism for benches that drive Nsga2 directly;
  // run_figure's StudyEngine overrides this with its shared pool.
  config.threads = bench_threads();
  config.seed = seed;
  return config;
}

/// "Figure 3" + "dataset 1" -> "figure_3_dataset_1".
inline std::string run_slug(const std::string& figure,
                            const std::string& scenario) {
  std::string slug;
  for (const std::string* part : {&figure, &scenario}) {
    if (!slug.empty() && slug.back() != '_') slug += '_';
    for (const char c : *part) {
      if (std::isalnum(static_cast<unsigned char>(c))) {
        slug += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
      } else if (!slug.empty() && slug.back() != '_') {
        slug += '_';
      }
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}

/// The JSONL run-record sink: EUS_RUNLOG=off disables, EUS_RUNLOG=<path>
/// overrides, default is <slug>.jsonl in the working directory.
inline std::unique_ptr<RunRecorder> open_run_recorder(
    const std::string& path) {
  if (path == "off" || path == "none") return nullptr;
  try {
    return std::make_unique<RunRecorder>(path);
  } catch (const std::exception& e) {
    std::cerr << "warning: run record disabled (" << e.what() << ")\n";
    return nullptr;
  }
}

/// Runs the five-population study for one scenario and prints everything.
/// Metrics route through the harness's per-scenario registry (`ctx`), so
/// eus_bench snapshots evaluation/pool counters around every timed
/// repetition; a null ctx.metrics (standalone use) gets a local registry.
inline StudyResult run_figure(const benchkit::ScenarioContext& ctx,
                              const FigureSpec& spec,
                              const Scenario& scenario) {
  const double scale = spec.default_scale * bench_scale();
  const auto checkpoints = scaled_checkpoints(spec.paper_iters, scale);

  std::cout << "== " << spec.figure << " — " << scenario.name << " ==\n"
            << "tasks: " << scenario.trace.size()
            << ", machines: " << scenario.system.num_machines()
            << ", window: " << scenario.window_seconds << " s\n"
            << "paper iterations: ";
  for (const auto c : spec.paper_iters) std::cout << c << ' ';
  std::cout << "-> scaled (x" << scale << "): ";
  for (const auto c : checkpoints) std::cout << c << ' ';
  std::cout << "(set EUS_SCALE to rescale)\n";

  const WorkloadAnalysis load =
      analyze_workload(scenario.system, scenario.trace);
  const ObjectiveBounds bounds =
      compute_bounds(scenario.system, scenario.trace);
  std::cout << "offered load: " << format_double(load.offered_load, 2)
            << "x capacity; bounds: energy >= "
            << format_double(bounds.energy_lower / 1e6, 3)
            << " MJ, utility <= "
            << format_double(bounds.utility_upper_contention_free, 1)
            << " (contention-free)\n";

  MetricsRegistry local_metrics;
  MetricsRegistry& metrics =
      ctx.metrics != nullptr ? *ctx.metrics : local_metrics;

  EvaluatorOptions evaluator_options;
  evaluator_options.metrics = &metrics;  // evaluator.* counters in snapshots
  const UtilityEnergyProblem problem(scenario.system, scenario.trace,
                                     std::move(evaluator_options));
  const std::string run_path =
      env_string("EUS_RUNLOG")
          .value_or(run_slug(spec.figure, scenario.name) + ".jsonl");
  const std::unique_ptr<RunRecorder> recorder = open_run_recorder(run_path);

  StudyEngineConfig engine_config;
  engine_config.threads = bench_threads();
  engine_config.metrics = &metrics;
  engine_config.recorder = recorder.get();
  engine_config.study_label = spec.figure + " — " + scenario.name;
  StudyEngine engine(engine_config);

  std::cout << "threads: " << engine.threads()
            << " (set EUS_THREADS; 0 = all cores, 1 = serial)\n";

  Stopwatch timer;
  const StudyResult study = engine.run(
      problem, figure_config(bench_seed(), spec.population), checkpoints,
      paper_population_specs(), [&](const std::string& name, std::size_t it) {
        std::cout << "  [" << timer.seconds() << "s] " << name << " @ " << it
                  << " iterations\n";
      });
  const double wall = timer.seconds();

  // One subplot per checkpoint, all five populations overlaid.
  for (std::size_t c = 0; c < checkpoints.size(); ++c) {
    std::vector<PlotSeries> series;
    for (std::size_t p = 0; p < study.population_names.size(); ++p) {
      PlotSeries s{study.population_names[p], study.markers[p], {}, {}};
      for (const auto& pt : study.fronts[p][c]) {
        s.x.push_back(pt.energy / 1e6);
        s.y.push_back(pt.utility);
      }
      series.push_back(std::move(s));
    }
    PlotOptions opts;
    opts.title = "\n" + spec.figure + " subplot — fronts through " +
                 std::to_string(checkpoints[c]) + " iterations";
    opts.x_label = "total energy consumed (MJ)";
    opts.y_label = "total utility earned";
    std::cout << render_scatter(series, opts);
  }

  // The circled region (max utility-per-energy) on the final fronts.
  std::cout << "\nmost-efficient region per population (final checkpoint):\n";
  for (std::size_t p = 0; p < study.population_names.size(); ++p) {
    const KneeAnalysis knee =
        analyze_utility_per_energy(study.final_front(p));
    std::cout << "  " << study.population_names[p] << ": peak "
              << knee.peak_ratio * 1e6 << " utility/MJ at "
              << knee.peak.energy / 1e6 << " MJ, " << knee.peak.utility
              << " utility\n";
  }

  // Bound attainment at the final checkpoint.
  std::cout << "\nutility-bound attainment @ final checkpoint:\n";
  for (std::size_t p = 0; p < study.population_names.size(); ++p) {
    const auto& front = study.final_front(p);
    std::cout << "  " << study.population_names[p] << ": "
              << format_double(100.0 * front.back().utility /
                                   bounds.utility_upper_contention_free,
                               1)
              << "% of bound, energy floor "
              << format_double(front.front().energy / bounds.energy_lower, 3)
              << "x optimal\n";
  }

  // Convergence summary: hypervolume per population per checkpoint.
  std::vector<std::vector<EUPoint>> all;
  for (const auto& per_pop : study.fronts) {
    for (const auto& f : per_pop) all.push_back(f);
  }
  const EUPoint ref = enclosing_reference(all);
  std::cout << "\nhypervolume (normalized to best final):\n";
  double best_final = 0.0;
  for (std::size_t p = 0; p < study.fronts.size(); ++p) {
    best_final =
        std::max(best_final, hypervolume(study.final_front(p), ref));
  }
  for (std::size_t p = 0; p < study.fronts.size(); ++p) {
    std::cout << "  " << study.population_names[p] << ":";
    for (std::size_t c = 0; c < checkpoints.size(); ++c) {
      std::cout << ' '
                << format_double(
                       hypervolume(study.fronts[p][c], ref) / best_final, 3);
    }
    std::cout << '\n';
  }

  // Machine-readable block.
  std::cout << "\nCSV population,iterations,energy_J,utility\n";
  CsvWriter csv(std::cout);
  for (std::size_t p = 0; p < study.fronts.size(); ++p) {
    for (std::size_t c = 0; c < checkpoints.size(); ++c) {
      for (const auto& pt : study.fronts[p][c]) {
        csv.write_row({study.population_names[p],
                       std::to_string(checkpoints[c]),
                       format_double(pt.energy, 1),
                       format_double(pt.utility, 3)});
      }
    }
  }
  std::cout << "END CSV\n";

  // Telemetry digest (the full snapshot lands in the JSONL summary).
  const MetricsSnapshot snap = metrics.snapshot();
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0U : it->second;
  };
  const auto timer_s = [&](const char* name) -> double {
    const auto it = snap.timers.find(name);
    return it == snap.timers.end() ? 0.0 : it->second.seconds;
  };
  const std::uint64_t evals = counter("nsga2.evaluations");
  std::cout << "telemetry: " << evals << " evaluations, "
            << format_double(wall > 0.0
                                 ? static_cast<double>(evals) / wall
                                 : 0.0,
                             0)
            << " evals/s; thread-time split: variation "
            << format_double(timer_s("nsga2.variation_s"), 2)
            << " s, evaluation "
            << format_double(timer_s("nsga2.evaluation_s"), 2)
            << " s, selection "
            << format_double(timer_s("nsga2.selection_s"), 2) << " s\n";
  if (recorder) {
    std::cout << "run record: " << run_path << " ("
              << recorder->lines_written()
              << " lines; set EUS_RUNLOG to redirect, EUS_RUNLOG=off to "
                 "disable)\n";
  }
  std::cout << "total wall time: " << wall << " s\n";
  return study;
}

}  // namespace eus::bench
