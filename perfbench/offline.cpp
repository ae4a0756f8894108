#include "offline.hpp"

#include <algorithm>
#include <iostream>
#include <stdexcept>

#include "core/nsga2.hpp"
#include "core/study_engine.hpp"
#include "heuristics/seeds.hpp"
#include "reference.hpp"

namespace perfbench {

using namespace eus;

namespace {

constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kMinStudies = 3;

/// Population 0 of the study re-run through Nsga2 directly (the same seed
/// stride StudyEngine applies): its front must be bit-identical to the
/// study's, and every front genome must validate and re-evaluate to its
/// reported point.
void check_population0(const StudySetup& setup, const StudyParams& params,
                       const Nsga2Config& study, const StudyResult& result,
                       Report& report) {
  const PopulationSpec spec = paper_population_specs().front();
  Nsga2Config config = study;
  config.seed += kPopulationSeedStride * 1;
  config.threads = params.threads;
  Nsga2 algorithm(*setup.problem, config);
  std::vector<Allocation> seeds;
  for (const SeedHeuristic h : spec.seeds) {
    seeds.push_back(make_seed(h, setup.scenario->system, setup.scenario->trace));
  }
  algorithm.initialize(seeds);
  algorithm.iterate(params.generations);
  report.check(algorithm.front_points() == result.final_front(0),
               "population 0 front differs from the Nsga2 oracle");
  const Evaluator& evaluator = setup.problem->evaluator();
  bool all_valid = true;
  bool all_exact = true;
  for (const Individual& ind : algorithm.front()) {
    try {
      evaluator.validate(ind.genome);
    } catch (const std::exception&) {
      all_valid = false;
      continue;
    }
    const Evaluation e = evaluator.evaluate(ind.genome);
    all_exact = all_exact && e.energy == ind.objectives.energy &&
                e.utility == ind.objectives.utility;
  }
  report.check(all_valid, "a final-front genome fails Evaluator::validate");
  report.check(all_exact,
               "a final-front genome re-evaluates to a different point");
}

/// Per-instance figures of one run; study times at reference speed.
struct InstanceResult {
  double setup_s = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double per_s = 0.0;
  double raw_p50_ms = 0.0;  ///< wall time as measured
  double ref_ms = 0.0;      ///< median reference job
  std::size_t studies = 0;
};

}  // namespace

bool is_study_workload(const std::string& workload) {
  return workload == "study_ds1" || workload == "study_ds3";
}

StudyParams study_params(const std::string& workload) {
  if (workload == "study_ds3") return StudyParams{3, 4, 30, 6};
  if (workload == "study_ds1") return StudyParams{1, 1, 120, 8};
  throw std::invalid_argument("not a study workload: " + workload);
}

std::uint64_t dataset_seed(std::uint64_t seed, std::size_t instance) {
  return mix_seed(mix_seed(seed, 1), instance) % 1000000007ULL;
}

std::uint64_t ga_seed(std::uint64_t seed, std::size_t instance) {
  return mix_seed(mix_seed(seed, 2), instance) % 1000000007ULL;
}

StudySetup build_study_setup(const StudyParams& params, std::uint64_t seed,
                             std::size_t instance,
                             MetricsRegistry* metrics) {
  StudySetup setup;
  const std::uint64_t ds = dataset_seed(seed, instance);
  setup.scenario = std::make_unique<Scenario>(
      params.dataset == 3 ? make_dataset3(ds) : make_dataset1(ds));
  EvaluatorOptions options;
  options.metrics = metrics;
  setup.problem = std::make_unique<UtilityEnergyProblem>(
      setup.scenario->system, setup.scenario->trace, std::move(options));
  for (const SeedHeuristic h : all_seed_heuristics()) {
    setup.seeds.push_back(
        make_seed(h, setup.scenario->system, setup.scenario->trace));
  }
  return setup;
}

Nsga2Config study_config(std::uint64_t seed, std::size_t instance) {
  Nsga2Config config;  // library defaults: N = 100, uniform selection
  config.seed = ga_seed(seed, instance);
  return config;
}

void run_study_workload(const Options& options, Report& report) {
  const StudyParams params = study_params(options.workload);
  StudyEngineConfig engine_config;
  engine_config.threads = params.threads;
  StudyEngine engine(engine_config);
  const std::vector<std::size_t> checkpoints{params.generations};
  const std::vector<PopulationSpec> specs = paper_population_specs();
  const double budget_s = options.seconds / static_cast<double>(params.instances);

  std::vector<InstanceResult> instances;
  std::vector<double> hv;
  std::size_t tasks = 0;
  std::size_t machines = 0;
  for (std::size_t i = 0; i < params.instances; ++i) {
    InstanceResult r;
    std::vector<double> setup_s;
    StudySetup setup;
    for (std::size_t k = 0; k < kSetupRepeats; ++k) {
      setup = StudySetup{};
      const double ref_ms = reference_ms();
      const auto t0 = Clock::now();
      setup = build_study_setup(params, options.seed, i, nullptr);
      setup_s.push_back(at_reference_speed(seconds_since(t0), ref_ms));
    }
    r.setup_s = median(setup_s);
    tasks = setup.scenario->trace.size();
    machines = setup.scenario->system.num_machines();
    const HvFrame frame = hv_frame(*setup.scenario);
    const Nsga2Config config = study_config(options.seed, i);

    // Each instance's first study is untimed (it is the reference the
    // timed repeats must reproduce); it also spins up the pool and
    // page-faults the population memory.
    const StudyResult reference =
        engine.run(*setup.problem, config, checkpoints, specs);

    // Every study is preceded by the reference job (reference.hpp) and
    // stated at reference speed.
    std::vector<double> raw_ms;
    std::vector<double> ref_ms;
    std::vector<double> study_ms;
    bool repeatable = true;
    const auto window = Clock::now();
    while (seconds_since(window) < budget_s || study_ms.size() < kMinStudies) {
      ref_ms.push_back(reference_ms());
      const auto t0 = Clock::now();
      const StudyResult study =
          engine.run(*setup.problem, config, checkpoints, specs);
      raw_ms.push_back(seconds_since(t0) * 1e3);
      study_ms.push_back(at_reference_speed(raw_ms.back(), ref_ms.back()));
      repeatable = repeatable && study.fronts == reference.fronts;
    }
    r.studies = study_ms.size();
    r.p50_ms = median(study_ms);
    r.p95_ms = quantile(study_ms, 0.95);
    r.per_s = 1e3 / mean(study_ms);
    r.raw_p50_ms = median(raw_ms);
    r.ref_ms = median(ref_ms);
    report.add_ops(study_ms.size(), 0);
    report.check(repeatable, "a repeated study produced different fronts");
    for (std::size_t p = 0; p < specs.size(); ++p) {
      hv.push_back(normalized_hv(reference.final_front(p), frame));
    }
    check_population0(setup, params, config, reference, report);
    instances.push_back(r);
  }
  report.check(mean(hv) > 0.0, "study fronts have zero hypervolume");

  const auto across = [&](double InstanceResult::*field) {
    std::vector<double> values;
    for (const InstanceResult& r : instances) values.push_back(r.*field);
    return trimmed_mean(values);
  };
  std::size_t studies = 0;
  for (const InstanceResult& r : instances) studies += r.studies;
  report.note("workload " + options.workload + ": dataset " +
              std::to_string(params.dataset) + " (" + std::to_string(tasks) +
              " tasks, " + std::to_string(machines) + " machines), " +
              std::to_string(params.instances) +
              " seeded instances, 5 populations x N=100 x " +
              std::to_string(params.generations) + " generations, " +
              std::to_string(params.threads) + " thread(s)");
  report.note("samples: " + std::to_string(studies) +
              " studies (one operation = one study; study_s = " +
              std::to_string(across(&InstanceResult::p50_ms) / 1e3) +
              " s at reference speed), " +
              std::to_string(kSetupRepeats * params.instances) +
              " set-ups; figures are trimmed means over instances");
  report.note("as measured: study p50 " +
              std::to_string(across(&InstanceResult::raw_p50_ms)) +
              " ms, reference job " +
              std::to_string(across(&InstanceResult::ref_ms)) + " ms (" +
              std::to_string(kReferenceNominalMs) + " ms nominal)");
  report.set("setup_s", across(&InstanceResult::setup_s), "s");
  report.set("latency_p50_ms", across(&InstanceResult::p50_ms), "ms");
  report.set("latency_p95_ms", across(&InstanceResult::p95_ms), "ms");
  report.set("req_per_s", across(&InstanceResult::per_s), "1/s");
  report.set("front_hv", mean(hv), "ratio");
  report.set("peak_rss_mb", peak_rss_mb(), "MiB");
}

}  // namespace perfbench
