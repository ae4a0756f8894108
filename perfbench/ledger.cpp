#include "ledger.hpp"

#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/crowding.hpp"
#include "core/nondominated_sort.hpp"
#include "core/nsga2.hpp"
#include "core/study_engine.hpp"
#include "fleet/policy.hpp"
#include "heuristics/seeds.hpp"
#include "offline.hpp"
#include "pareto/archive.hpp"
#include "sched/evaluator.hpp"
#include "served.hpp"
#include "serve/front_cache.hpp"
#include "serve/handlers.hpp"
#include "serve/protocol.hpp"
#include "tenant/archive_store.hpp"
#include "tenant/repair.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace eus;
using eus::serve::ScenarioSpec;

namespace {

/// Studies per batch in the offline overhead comparison.
constexpr std::size_t kTracedStudies = 2;
/// Requests per connection in a served batch (fixed, so counts repeat).
constexpr std::size_t kServeBatch = 1500;
constexpr std::size_t kProbeBatch = 40;
/// trace.coverage must land inside this band, or the stage-sum check fails.
constexpr double kCoverageLow = 0.8;
constexpr double kCoverageHigh = 1.2;

/// What the layer replays run on: the workload's own scenario, NSGA-II
/// budget and evaluation pool.
struct Inputs {
  ScenarioSpec spec;
  std::size_t population = 16;
  std::size_t generations = 16;
  std::size_t threads = 1;
  std::vector<SeedHeuristic> seeds{SeedHeuristic::kMinEnergy};
  std::size_t handle_reps = 16;  ///< cold handle_allocate samples
};

Inputs inputs_for(const Options& options) {
  Inputs in;
  if (is_study_workload(options.workload)) {
    const StudyParams p = study_params(options.workload);
    in.spec = dataset_spec(p.dataset, dataset_seed(options.seed, 0));
    in.population = 100;
    in.generations = p.generations;
    in.threads = p.threads;
    in.handle_reps = p.dataset == 3 ? 2 : 4;
  } else {
    in.spec = Mix(options.workload, options.seed).representative();
    in.generations = options.workload == "tenant_delta" ? 32 : 16;
  }
  return in;
}

/// Reads program counters by name: a name the program no longer registers
/// yields nullopt, which the report shows as absent.
class Counters {
 public:
  explicit Counters(std::map<std::string, double> values)
      : values_(std::move(values)) {}
  static Counters of(const MetricsSnapshot& snap) {
    std::map<std::string, double> values;
    for (const auto& [name, v] : snap.counters) {
      values[name] = static_cast<double>(v);
    }
    return Counters(std::move(values));
  }
  [[nodiscard]] std::optional<double> get(const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] Counters minus(const Counters& before) const {
    std::map<std::string, double> out;
    for (const auto& [name, v] : values_) {
      out[name] = v - before.get(name).value_or(0.0);
    }
    return Counters(std::move(out));
  }
  [[nodiscard]] Counters plus(const Counters& other) const {
    std::map<std::string, double> out = values_;
    for (const auto& [name, v] : other.values_) out[name] += v;
    return Counters(std::move(out));
  }

 private:
  std::map<std::string, double> values_;
};

std::optional<double> sum(std::optional<double> a, std::optional<double> b) {
  if (!a || !b) return std::nullopt;
  return *a + *b;
}

/// Sets `name` to num/den, or reports it absent when a counter is missing.
void set_ratio(Report& report, const std::string& name,
               std::optional<double> num, std::optional<double> den) {
  if (!num || !den) {
    report.absent(name, "ratio");
    return;
  }
  report.set(name, *den > 0.0 ? *num / *den : 0.0, "ratio");
}

void set_count(Report& report, const std::string& name,
               std::optional<double> value, double per = 1.0) {
  if (!value) {
    report.absent(name, "count");
    return;
  }
  report.set(name, *value / per, "count");
}

Counters fleet_counters(const Fleet& fleet) {
  Counters total(std::map<std::string, double>{});
  for (const std::uint16_t port : fleet.backend_ports()) {
    total = total.plus(Counters(scrape_counters(port)));
  }
  return total;
}

// ----------------------------------------------------------- phase A

/// Offline: kTracedStudies studies untraced, then the same number with the
/// program's own MetricsRegistry attached (the traced run).
void traced_studies(const Options& options, Report& report) {
  const StudyParams params = study_params(options.workload);
  const StudySetup plain = build_study_setup(params, options.seed, 0, nullptr);
  MetricsRegistry registry;
  const StudySetup traced =
      build_study_setup(params, options.seed, 0, &registry);
  const std::vector<std::size_t> checkpoints{params.generations};
  const Nsga2Config config = study_config(options.seed, 0);

  StudyEngineConfig untraced_config;
  untraced_config.threads = params.threads;
  StudyEngine untraced_engine(untraced_config);
  StudyEngineConfig traced_config = untraced_config;
  traced_config.metrics = &registry;
  StudyEngine traced_engine(traced_config);

  (void)untraced_engine.run(*plain.problem, config, checkpoints,
                            paper_population_specs());  // warm-up
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  const Counters before = Counters::of(registry.snapshot());
  for (std::size_t i = 0; i < kTracedStudies; ++i) {
    auto t0 = Clock::now();
    (void)untraced_engine.run(*plain.problem, config, checkpoints,
                              paper_population_specs());
    untraced_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    (void)traced_engine.run(*traced.problem, config, checkpoints,
                            paper_population_specs());
    traced_s.push_back(seconds_since(t0));
  }
  const Counters delta = Counters::of(registry.snapshot()).minus(before);
  const double per = static_cast<double>(kTracedStudies);
  report.set("trace.overhead_pct",
             (median(traced_s) / median(untraced_s) - 1.0) * 100.0, "%");
  set_count(report, "count.evaluations", delta.get("nsga2.evaluations"), per);
  set_count(report, "count.generations", delta.get("nsga2.generations"), per);
  report.set("count.requests_sent", per, "count");
  report.set("count.requests_ok", per, "count");
  report.set("count.requests_failed", 0.0, "count");
  report.set("count.delta_warm", 0.0, "count");
  report.set("count.delta_cold", 0.0, "count");
  report.set("count.cache_hits", 0.0, "count");
  report.add_ops(2 * kTracedStudies, 0);
}

/// The per-request spans of a served batch: client round trip, the
/// backend's queue and service times from each response's timing block,
/// and the remainder (router hop plus framing).
void served_spans(const std::vector<Sample>& samples, Report& report) {
  std::vector<double> queue;
  std::vector<double> service;
  std::vector<double> wire;
  for (const Sample& s : samples) {
    if (!s.ok || s.queue_ms < 0.0 || s.service_ms < 0.0) continue;
    queue.push_back(s.queue_ms);
    service.push_back(s.service_ms);
    wire.push_back(s.rtt_ms - s.queue_ms - s.service_ms);
  }
  report.set("serve.queue_ms", median(queue), "ms");
  report.set("serve.service_ms", median(service), "ms");
  report.set("serve.wire_ms", median(wire), "ms");
}

/// One fixed batch on a fresh fleet; returns the samples and the backend
/// and router counter deltas across the batch.
struct Batch {
  std::vector<Spec> specs;
  std::vector<Sample> samples;
  Counters backend{std::map<std::string, double>{}};
  Counters router{std::map<std::string, double>{}};
};

Batch run_batch(const Options& options, Mix mix, std::size_t per_conn,
                Report& report) {
  Batch batch;
  FleetSetup setup = set_up_fleet(options, mix, report);
  const Counters backend0 = fleet_counters(*setup.fleet);
  const Counters router0(scrape_counters(setup.fleet->port()));
  double elapsed = 0.0;
  batch.samples = closed_loop(setup.fleet->port(), mix, 0.0, batch.specs,
                              elapsed, per_conn);
  batch.backend = fleet_counters(*setup.fleet).minus(backend0);
  batch.router = Counters(scrape_counters(setup.fleet->port())).minus(router0);
  setup.fleet->stop();
  return batch;
}

void report_fleet_counters(const Batch& batch, Report& report) {
  const auto hits = batch.backend.get("serve.cache.hits");
  set_ratio(report, "serve.cache_hit_ratio", hits,
            sum(hits, batch.backend.get("serve.cache.misses")));
  set_count(report, "fleet.retries", batch.router.get("fleet.retries"));
}

void traced_served(const Options& options, Report& report) {
  std::vector<double> untraced_rtt;
  {
    const Batch plain =
        run_batch(options, Mix(options.workload, options.seed), kServeBatch,
                  report);
    for (const Sample& s : plain.samples) untraced_rtt.push_back(s.rtt_ms);
  }
  const Batch batch = run_batch(options, Mix(options.workload, options.seed),
                                kServeBatch, report);
  std::vector<double> rtt;
  std::size_t ok = 0;
  for (const Sample& s : batch.samples) {
    rtt.push_back(s.rtt_ms);
    ok += s.ok ? 1 : 0;
  }
  check_samples(batch.specs, batch.samples, report);
  served_spans(batch.samples, report);
  report_fleet_counters(batch, report);
  report.set("trace.overhead_pct",
             (median(rtt) / median(untraced_rtt) - 1.0) * 100.0, "%");
  set_count(report, "count.evaluations", batch.backend.get("nsga2.evaluations"));
  set_count(report, "count.generations", batch.backend.get("nsga2.generations"));
  report.set("count.requests_sent", static_cast<double>(batch.samples.size()),
             "count");
  report.set("count.requests_ok", static_cast<double>(ok), "count");
  report.set("count.requests_failed",
             static_cast<double>(batch.samples.size() - ok), "count");
  // The daemon registers a delta counter on its first increment: when the
  // other one exists (or the mix sends no deltas) a missing one is zero.
  const auto warm = batch.backend.get("serve.delta.warm");
  const auto cold = batch.backend.get("serve.delta.cold");
  const bool known = warm || cold || options.workload != "tenant_delta";
  set_count(report, "count.delta_warm",
            known ? std::optional<double>(warm.value_or(0.0)) : std::nullopt);
  set_count(report, "count.delta_cold",
            known ? std::optional<double>(cold.value_or(0.0)) : std::nullopt);
  set_count(report, "count.cache_hits", batch.backend.get("serve.cache.hits"));
  if (options.workload == "tenant_delta") {
    const auto hits = batch.backend.get("archive.warm_hits");
    set_ratio(report, "tenant.warm_ratio", hits,
              sum(hits, batch.backend.get("archive.misses")));
    set_count(report, "tenant.evictions",
              batch.backend.get("archive.evictions"));
  }
}

/// The offline workloads' served probe: the study dataset through the
/// fleet, for the wire, queue and routing layers.
void served_probe(const Options& options, Report& report) {
  const StudyParams params = study_params(options.workload);
  const Batch batch =
      run_batch(options,
                Mix::probe(params.dataset, dataset_seed(options.seed, 0)),
                kProbeBatch, report);
  check_samples(batch.specs, batch.samples, report);
  served_spans(batch.samples, report);
  report_fleet_counters(batch, report);
}

// ----------------------------------------------------------- phase B

/// A converged population of the workload's own NSGA-II run, with the
/// per-generation fronts, phase timers and evaluator counters it produced.
struct Replay {
  std::vector<Individual> population;
  std::vector<EUPoint> previous_points;  ///< population one generation back
  std::vector<std::vector<EUPoint>> fronts;
  std::vector<Individual> front;
  std::vector<double> gen_ms;
  double evals_per_gen = 0.0;
  MetricsSnapshot snapshot;
};

Replay replay_nsga2(const Inputs& in, const Scenario& scenario) {
  Replay out;
  MetricsRegistry registry;
  EvaluatorOptions options;
  options.metrics = &registry;
  const UtilityEnergyProblem problem(scenario.system, scenario.trace,
                                     std::move(options));
  std::unique_ptr<ThreadPool> pool;
  if (in.threads > 1) pool = std::make_unique<ThreadPool>(in.threads);
  Nsga2Config config;
  config.population_size = in.population;
  config.seed = in.spec.seed + kPopulationSeedStride;
  config.shared_pool = pool.get();
  config.metrics = &registry;
  Nsga2 algorithm(problem, config);
  std::vector<Allocation> seeds;
  for (const SeedHeuristic h : in.seeds) {
    seeds.push_back(make_seed(h, scenario.system, scenario.trace));
  }
  algorithm.initialize(seeds);
  const std::uint64_t evals0 = algorithm.evaluations();
  for (std::size_t g = 0; g < in.generations; ++g) {
    if (g + 1 == in.generations) {
      for (const Individual& ind : algorithm.population()) {
        out.previous_points.push_back(ind.objectives);
      }
    }
    const auto t0 = Clock::now();
    algorithm.iterate(1);
    out.gen_ms.push_back(seconds_since(t0) * 1e3);
    out.fronts.push_back(algorithm.front_points());
  }
  out.evals_per_gen = static_cast<double>(algorithm.evaluations() - evals0) /
                      static_cast<double>(in.generations);
  out.population = algorithm.population();
  out.front = algorithm.front();
  out.snapshot = registry.snapshot();
  return out;
}

/// `parent` with `k` genes moved to another eligible machine.
Allocation perturb(const Allocation& parent, const Scenario& scenario,
                   std::size_t k, std::uint64_t seed,
                   std::vector<std::uint32_t>& touched) {
  Allocation child = parent;
  touched.clear();
  const std::size_t n = child.machine.size();
  for (std::size_t j = 0; j < k; ++j) {
    const auto i = static_cast<std::size_t>(mix_seed(seed, j) % n);
    const auto& eligible = scenario.system.eligible_machines(
        static_cast<std::size_t>(scenario.trace.tasks()[i].type));
    if (eligible.size() < 2) continue;
    const std::size_t pick = mix_seed(seed, 1000 + j) % eligible.size();
    int machine = eligible[pick];
    if (machine == child.machine[i]) {
      machine = eligible[(pick + 1) % eligible.size()];
    }
    child.machine[i] = machine;
    touched.push_back(static_cast<std::uint32_t>(i));
  }
  return child;
}

void sched_layer(const Inputs& in, const Scenario& scenario,
                 const Replay& replay, Report& report) {
  report.set("sched.ctor_ms", median_us(9, [&] {
               const UtilityEnergyProblem p(scenario.system, scenario.trace);
               (void)p.genome_size();
             }) / 1e3,
             "ms");
  const Evaluator evaluator(scenario.system, scenario.trace);
  std::vector<double> full;
  double sink = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    for (const Individual& ind : replay.population) {
      const auto t0 = Clock::now();
      sink += evaluator.evaluate(ind.genome).energy;
      full.push_back(seconds_since(t0) * 1e6);
    }
  }
  const double full_us = median(full);
  report.set("sched.full_us", full_us, "us");
  report.set("sched.full_ns_per_task",
             full_us * 1e3 / static_cast<double>(scenario.trace.size()), "ns");

  const Allocation& parent = replay.front.front().genome;
  EvalState parent_state;
  (void)evaluator.evaluate(parent, parent_state);
  bool identical = true;
  for (const std::size_t k : {std::size_t{2}, std::size_t{16}}) {
    std::vector<double> delta;
    std::vector<std::uint32_t> touched;
    for (std::uint64_t c = 0; c < 64; ++c) {
      const Allocation child =
          perturb(parent, scenario, k, mix_seed(in.spec.seed, 77 + c), touched);
      EvalState out_state;
      const auto t0 = Clock::now();
      const Evaluation e = evaluator.evaluate_incremental(
          child, parent, parent_state, touched, out_state);
      delta.push_back(seconds_since(t0) * 1e6);
      const Evaluation oracle = evaluator.evaluate(child);
      identical = identical && e.energy == oracle.energy &&
                  e.utility == oracle.utility;
    }
    report.set("sched.delta_us_g" + std::to_string(k), median(delta), "us");
  }
  report.check(identical,
               "evaluate_incremental differs from a full evaluate");
  report.check(sink > 0.0, "full evaluations returned no energy");

  const Counters counters = Counters::of(replay.snapshot);
  const auto hits = counters.get("evaluator.incremental.hits");
  set_ratio(report, "sched.delta_hit_ratio", hits,
            sum(hits, counters.get("evaluator.incremental.fallbacks")));
  if (const auto m = counters.get("evaluator.incremental.machines_resimulated");
      m && hits) {
    report.set("sched.machines_per_delta", *hits > 0.0 ? *m / *hits : 0.0,
               "count");
  } else {
    report.absent("sched.machines_per_delta", "count");
  }
}

void core_layer(const Replay& replay, Report& report) {
  report.set("core.gen_ms", median(replay.gen_ms), "ms");
  report.set("core.evals_per_gen", replay.evals_per_gen, "count");
  const auto& timers = replay.snapshot.timers;
  const auto seconds_of = [&](const char* name) -> std::optional<double> {
    const auto it = timers.find(name);
    if (it == timers.end()) return std::nullopt;
    return it->second.seconds;
  };
  const auto var = seconds_of("nsga2.variation_s");
  const auto eval = seconds_of("nsga2.evaluation_s");
  const auto sel = seconds_of("nsga2.selection_s");
  const std::optional<double> total = sum(sum(var, eval), sel);
  set_ratio(report, "core.variation_share", var, total);
  set_ratio(report, "core.evaluation_share", eval, total);
  set_ratio(report, "core.selection_share", sel, total);

  std::vector<EUPoint> meta = replay.previous_points;
  for (const Individual& ind : replay.population) {
    meta.push_back(ind.objectives);
  }
  SortedFronts sorted;
  report.set("core.sort_us",
             median_us(51, [&] { sorted = nondominated_sort(meta); }), "us");
  report.set("core.crowding_us", median_us(51, [&] {
               for (const auto& front : sorted.fronts) {
                 (void)crowding_distances(meta, front);
               }
             }),
             "us");
}

void pareto_layer(const Replay& replay, Report& report) {
  ParetoArchive archive(32);
  std::vector<double> merge;
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& front : replay.fronts) {
      const auto t0 = Clock::now();
      (void)archive.insert_all(front);
      merge.push_back(seconds_since(t0) * 1e6);
    }
  }
  report.set("pareto.merge_us", median(merge), "us");
}

void tenant_layer(const Options& options, const Scenario& scenario,
                  const Replay& replay, Report& report) {
  std::vector<Allocation> genomes;
  std::vector<EUPoint> points;
  for (const Individual& ind : replay.front) {
    genomes.push_back(ind.genome);
    points.push_back(ind.objectives);
  }
  MetricsRegistry registry;
  tenant::ArchiveStore store(tenant::ArchiveConfig{}, &registry);
  std::vector<double> put;
  std::vector<double> lookup;
  bool warm = true;
  // Twelve chained keys per tenant against the default cap of eight: puts
  // evict steadily while each lookup of the latest key stays warm.
  for (int t = 0; t < 8; ++t) {
    const std::string tenant = "tenant" + std::to_string(t);
    for (int k = 0; k < 12; ++k) {
      const std::string key = "scenario" + std::to_string(k);
      auto t0 = Clock::now();
      (void)store.put(tenant, key, "", genomes, points);
      put.push_back(seconds_since(t0) * 1e6);
      t0 = Clock::now();
      warm = store.lookup(tenant, key).has_value() && warm;
      lookup.push_back(seconds_since(t0) * 1e6);
    }
  }
  report.check(warm, "an archived front was not found right after put");
  report.set("tenant.put_us", median(put), "us");
  report.set("tenant.lookup_us", median(lookup), "us");
  if (options.workload != "tenant_delta") {
    const Counters counters = Counters::of(registry.snapshot());
    const auto hits = counters.get("archive.warm_hits");
    set_ratio(report, "tenant.warm_ratio", hits,
              sum(hits, counters.get("archive.misses")));
    set_count(report, "tenant.evictions", counters.get("archive.evictions"));
  }

  // Repair: remap the front's genomes across the first feasible machine
  // drop, as a delta's drop-machine does.
  for (std::size_t m = 0; m < scenario.system.num_machines(); ++m) {
    SystemModel dropped_system = scenario.system;
    try {
      dropped_system = tenant::drop_machine_instances(scenario.system, {m});
    } catch (const std::invalid_argument&) {
      continue;
    }
    const UtilityEnergyProblem dropped(dropped_system, scenario.trace);
    const std::vector<int> index_map =
        tenant::machine_index_map(scenario.system.num_machines(), {m});
    std::size_t repaired = 0;
    report.set("tenant.repair_ms", median_us(5, [&] {
                 repaired =
                     tenant::repair_genomes(genomes, dropped, index_map).size();
               }) / 1e3,
               "ms");
    report.check(repaired > 0, "repair_genomes kept no genome");
    return;
  }
  throw std::runtime_error("no feasible machine drop for the repair replay");
}

serve::ServeRequest nsga2_request(const Inputs& in, std::uint64_t seed) {
  serve::ServeRequest r;
  r.mode = serve::ModeKind::kNsga2;
  r.scenario = in.spec;
  r.scenario.seed = seed;
  r.nsga2.population = in.population;
  r.nsga2.generations = in.generations;
  r.nsga2.seeds = in.seeds;
  return r;
}

/// serve layer replays plus the stage-sum check on cold requests.
void serve_layer(const Inputs& in, const Scenario& scenario, Report& report) {
  Spec spec;
  spec.cls = Cls::kCold;
  spec.scenario = in.spec;
  spec.population = in.population;
  spec.generations = in.generations;
  spec.seeds = in.seeds;
  const std::string payload = render(spec);
  serve::ServeRequest parsed;
  report.set("serve.parse_us", median_us(201, [&] {
               parsed = serve::parse_request_text(payload);
             }),
             "us");
  std::string key;
  report.set("serve.fingerprint_us", median_us(201, [&] {
               key = serve::request_fingerprint(parsed);
             }),
             "us");
  const std::vector<fleet::Candidate> candidates{{"b0", 1.0, 1.0, 0},
                                                 {"b1", 1.0, 1.0, 1}};
  std::size_t ticket = 0;
  report.set("fleet.choose_us", median_us(201, [&] {
               const double cost = fleet::request_cost_units(parsed);
               ticket += fleet::choose_backend(fleet::RoutePolicy::kMinMin,
                                               candidates, cost, ticket);
             }),
             "us");

  MetricsRegistry registry;
  serve::FrontCache cache(64, &registry);
  tenant::ArchiveStore archive(tenant::ArchiveConfig{}, &registry);
  const serve::HandlerContext ctx{&registry, &cache, nullptr, &archive};

  // Cold nsga2 requests with distinct seeds, then the same requests'
  // stages replayed one by one: the stage sum over the handler total is
  // trace.coverage.
  std::vector<double> cold_ms;
  double handled_ms = 0.0;
  double stages_ms = 0.0;
  std::string response;
  for (std::size_t i = 0; i < in.handle_reps; ++i) {
    const serve::ServeRequest request = nsga2_request(in, in.spec.seed + i);
    auto t0 = Clock::now();
    const serve::HandleResult result =
        serve::handle_allocate(request, ctx, std::nullopt, 0.0);
    const double ms = seconds_since(t0) * 1e3;
    report.check(result.code == serve::kCodeOk,
                 "in-process cold handle_allocate did not answer 200");
    cold_ms.push_back(ms);
    handled_ms += ms;
    response = result.payload;

    t0 = Clock::now();
    (void)serve::request_fingerprint(request);
    const Scenario built = offline_scenario(request.scenario);
    const UtilityEnergyProblem problem(built.system, built.trace);
    std::vector<Allocation> seeds;
    for (const SeedHeuristic h : request.nsga2.seeds) {
      seeds.push_back(make_seed(h, built.system, built.trace));
    }
    Nsga2Config config;
    config.population_size = request.nsga2.population;
    config.seed = request.scenario.seed + kPopulationSeedStride;
    Nsga2 algorithm(problem, config);
    algorithm.initialize(seeds);
    algorithm.iterate(request.nsga2.generations);
    (void)algorithm.front_points();
    stages_ms += seconds_since(t0) * 1e3;
  }
  report.set("serve.handle_ms.cold", median(cold_ms), "ms");
  const double coverage = stages_ms / handled_ms;
  report.set("trace.coverage", coverage, "ratio");
  report.check(coverage >= kCoverageLow && coverage <= kCoverageHigh,
               "stage-sum check: trace.coverage " + std::to_string(coverage) +
                   " outside [" + std::to_string(kCoverageLow) + ", " +
                   std::to_string(kCoverageHigh) + "]");

  report.set("serve.frame_us", median_us(201, [&] {
               serve::FrameDecoder decoder;
               const std::string frame = serve::encode_frame(response);
               decoder.feed(frame.data(), frame.size());
               (void)decoder.next();
             }),
             "us");

  const serve::ServeRequest repeat = nsga2_request(in, in.spec.seed);
  report.set("serve.handle_ms.hit", median_us(51, [&] {
               (void)serve::handle_allocate(repeat, ctx, std::nullopt, 0.0);
             }) / 1e3,
             "ms");

  std::vector<double> heuristic_ms;
  for (std::size_t i = 0; i < 8; ++i) {
    serve::ServeRequest r = nsga2_request(in, in.spec.seed + 1000 + i);
    r.mode = serve::ModeKind::kHeuristic;
    r.heuristic = all_seed_heuristics()[i % 4];
    const auto t0 = Clock::now();
    const serve::HandleResult result =
        serve::handle_allocate(r, ctx, std::nullopt, 0.0);
    heuristic_ms.push_back(seconds_since(t0) * 1e3);
    report.check(result.code == serve::kCodeOk,
                 "in-process heuristic handle_allocate did not answer 200");
  }
  report.set("serve.handle_ms.heuristic", median(heuristic_ms), "ms");

  // Delta: prime a tenant's base, then repair-and-polish deltas off it
  // (trace growth on custom scenarios, a machine drop on the datasets).
  serve::ServeRequest base = nsga2_request(in, in.spec.seed);
  base.tenant = "ledger";
  report.check(serve::handle_allocate(base, ctx, std::nullopt, 0.0).code ==
                   serve::kCodeOk,
               "in-process tenant allocate did not answer 200");
  std::size_t drop = 0;
  for (; drop < scenario.system.num_machines(); ++drop) {
    try {
      (void)tenant::drop_machine_instances(scenario.system, {drop});
      break;
    } catch (const std::invalid_argument&) {
    }
  }
  std::vector<double> delta_ms;
  for (std::size_t i = 0; i < 4; ++i) {
    serve::ServeRequest d = base;
    d.kind = serve::RequestKind::kDelta;
    d.delta.base = base.scenario;
    serve::ScenarioMutation m;
    if (base.scenario.name == "custom") {
      m.op = serve::ScenarioMutation::Op::kAddTasks;
      m.count = 2;
    } else {
      m.op = serve::ScenarioMutation::Op::kDropMachine;
      m.machine = drop;
    }
    d.delta.mutations = {m};
    const auto t0 = Clock::now();
    const serve::HandleResult result =
        serve::handle_delta(d, ctx, std::nullopt, 0.0);
    delta_ms.push_back(seconds_since(t0) * 1e3);
    report.check(result.code == serve::kCodeOk &&
                     result.payload.find("\"warm\":true") != std::string::npos,
                 "in-process delta was not a warm 200");
    if (base.scenario.name == "custom") base.scenario.tasks += 2;
  }
  report.set("serve.handle_ms.delta", median(delta_ms), "ms");
}

}  // namespace

void run_ledger(const Options& options, Report& report) {
  const Inputs in = inputs_for(options);

  // Phase A: the workload itself, untraced and traced.
  if (is_study_workload(options.workload)) {
    traced_studies(options, report);
    served_probe(options, report);
  } else {
    traced_served(options, report);
  }

  // Phase B: each layer's public functions on the workload's inputs.
  std::vector<double> build_ms;
  std::optional<Scenario> scenario;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    scenario.emplace(offline_scenario(in.spec));
    build_ms.push_back(seconds_since(t0) * 1e3);
  }
  report.set("workload.build_ms", median(build_ms), "ms");
  report.set("heuristics.seed_ms", median_us(5, [&] {
               for (const SeedHeuristic h : all_seed_heuristics()) {
                 (void)make_seed(h, scenario->system, scenario->trace);
               }
             }) / 4e3,
             "ms");

  const Replay replay = replay_nsga2(in, *scenario);
  sched_layer(in, *scenario, replay, report);
  core_layer(replay, report);
  pareto_layer(replay, report);
  tenant_layer(options, *scenario, replay, report);
  serve_layer(in, *scenario, report);
  report.note("traced run of " + options.workload + ": layer replays on " +
              in.spec.name + " seed " + std::to_string(in.spec.seed) +
              ", N=" + std::to_string(in.population) + " x " +
              std::to_string(in.generations) + " generations");
}

}  // namespace perfbench
