// Quickstart: the 60-second tour of the framework.
//
//   1. build the paper's dataset 1 (real 5x9 data, 250 tasks / 15 min);
//   2. seed an NSGA-II population with the min-energy greedy allocation;
//   3. evolve for a few hundred generations;
//   4. print the Pareto front and the most-efficient operating region.
//
// Run:  ./quickstart [generations]

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/nsga2.hpp"
#include "core/study.hpp"
#include "pareto/knee.hpp"
#include "util/ascii_plot.hpp"
#include "util/stopwatch.hpp"
#include "workload/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace eus;

  std::size_t generations = 300;
  if (argc > 1) generations = static_cast<std::size_t>(std::atol(argv[1]));

  std::cout << "== eus quickstart ==\n";
  const Scenario scenario = make_dataset1(/*seed=*/42);
  std::cout << "scenario: " << scenario.name << " — "
            << scenario.trace.size() << " tasks over "
            << scenario.window_seconds << " s, "
            << scenario.system.num_machines() << " machines\n";

  const UtilityEnergyProblem problem(scenario.system, scenario.trace);

  Nsga2Config config;
  config.population_size = 100;
  config.mutation_probability = 0.25;
  config.seed = 42;

  Nsga2 ga(problem, config);
  ga.initialize({min_energy_allocation(scenario.system, scenario.trace),
                 min_min_completion_time_allocation(scenario.system,
                                                    scenario.trace)});

  Stopwatch timer;
  ga.iterate(generations);
  std::cout << "evolved " << generations << " generations ("
            << ga.evaluations() << " evaluations) in " << timer.seconds()
            << " s\n\n";

  const auto front = ga.front_points();
  PlotSeries series{"Pareto front", '*', {}, {}};
  for (const auto& p : front) {
    series.x.push_back(p.energy / 1e6);  // joules -> megajoules
    series.y.push_back(p.utility);
  }
  PlotOptions opts;
  opts.title = "Total energy consumed vs total utility earned";
  opts.x_label = "energy (MJ)";
  opts.y_label = "utility";
  std::cout << render_scatter({series}, opts) << '\n';

  const KneeAnalysis knee = analyze_utility_per_energy(front);
  std::cout << "front size: " << front.size() << "\n";
  std::cout << "most-efficient region: utility " << knee.peak.utility
            << " at " << knee.peak.energy / 1e6 << " MJ ("
            << knee.peak_ratio * 1e6 << " utility/MJ), "
            << knee.region.size() << " allocation(s) within 2%\n";
  std::cout << "\nEvery point is a complete task-to-machine mapping: pick "
               "the one matching\nyour energy budget and deploy it.\n";
  return 0;
}
