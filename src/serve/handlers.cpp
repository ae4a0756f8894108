#include "serve/handlers.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "core/nsga2.hpp"
#include "core/study_engine.hpp"
#include "data/historical.hpp"
#include "pareto/archive.hpp"
#include "pareto/knee.hpp"
#include "sched/evaluator.hpp"
#include "telemetry/json.hpp"
#include "tenant/repair.hpp"
#include "util/stopwatch.hpp"

namespace eus::serve {

namespace {

std::string point_json(const EUPoint& point) {
  JsonObject o;
  o.field("energy", point.energy);
  o.field("utility", point.utility);
  return o.str();
}

std::string front_json(const std::vector<EUPoint>& front) {
  std::string out = "[";
  for (std::size_t i = 0; i < front.size(); ++i) {
    if (i != 0) out += ',';
    out += point_json(front[i]);
  }
  out += ']';
  return out;
}

std::string int_array_json(const std::vector<int>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(values[i]);
  }
  out += ']';
  return out;
}

std::string allocation_json(const Allocation& allocation) {
  JsonObject o;
  o.raw("machine", int_array_json(allocation.machine));
  o.raw("order", int_array_json(allocation.order));
  o.raw("pstate", int_array_json(allocation.pstate));
  return o.str();
}

/// One NSGA-II evolution, fully specified (handle_allocate and
/// handle_delta differ only in where these values come from).
struct EvolveSpec {
  std::size_t population = 32;
  std::size_t generations = 32;
  double mutation_probability = 0.25;
  std::uint64_t seed = 0;  ///< the *scenario* seed, pre-stride
  std::vector<SeedHeuristic> heuristics;   ///< greedy seeds to inject
  const std::vector<Allocation>* warm = nullptr;  ///< repaired archive genomes
};

/// Evolves one deadline-sliced NSGA-II population.  Returns whether the
/// deadline expired before the full budget ran; `out` always carries the
/// best front evolved so far and `out_genomes` (optional) its genomes, in
/// front order.
///
/// With warm seeds the reported front is the nondominated union of the
/// evolved front and the re-evaluated warm genomes.  Evaluation is a pure
/// function and archived genomes come from a previously *converged*
/// deterministic run, so when the archive holds the same scenario's cold
/// front this union weakly dominates the cold result at any budget — the
/// structural guarantee behind docs/tenant.md.
bool run_nsga2(const EvolveSpec& spec, const HandlerContext& ctx,
               const Scenario& scenario, const BiObjectiveProblem& problem,
               std::optional<double> remaining_ms, CachedResult& out,
               std::vector<Allocation>* out_genomes) {
  Nsga2Config config;
  config.population_size = spec.population;
  config.mutation_probability = spec.mutation_probability;
  // Population index 0 of a StudyEngine run over the same base seed: a
  // tenant-less served front must be bit-identical to the offline study's.
  config.seed = spec.seed + kPopulationSeedStride * 1;
  config.shared_pool = ctx.pool;
  config.metrics = ctx.metrics;

  Nsga2 algorithm(problem, config);
  std::vector<Allocation> seeds;
  seeds.reserve(spec.heuristics.size());
  for (const SeedHeuristic h : spec.heuristics) {
    seeds.push_back(make_seed(h, scenario.system, scenario.trace));
  }
  const bool warm = spec.warm != nullptr && !spec.warm->empty();
  if (warm) {
    algorithm.initialize_warm(seeds, *spec.warm);
  } else {
    algorithm.initialize(seeds);
  }

  // Short slices keep the deadline check responsive without perturbing the
  // result: iterate(a) then iterate(b) is identical to iterate(a + b).
  const Stopwatch clock;
  const std::size_t total = spec.generations;
  const std::size_t slice =
      std::clamp<std::size_t>(total / 32, 1, 64);  // bounds check latency
  std::size_t done = 0;
  bool expired = remaining_ms.has_value() && *remaining_ms <= 0.0;
  while (done < total && !expired) {
    const std::size_t step = std::min(slice, total - done);
    algorithm.iterate(step);
    done += step;
    expired = remaining_ms.has_value() &&
              clock.milliseconds() >= *remaining_ms && done < total;
  }
  out.evaluations = algorithm.evaluations();
  out.generations = done;

  if (!warm) {
    out.front = algorithm.front_points();
    if (out_genomes != nullptr) {
      out_genomes->clear();
      for (const Individual& ind : algorithm.front()) {
        out_genomes->push_back(ind.genome);
      }
    }
    return expired;
  }

  // Union the evolved front with the warm genomes themselves: evolution can
  // drop an injected extreme through crowding, and the archive's points must
  // survive into the response for the weak-dominance guarantee to hold.
  std::vector<Allocation> pool;
  std::vector<EUPoint> pool_points;
  for (const Individual& ind : algorithm.front()) {
    pool.push_back(ind.genome);
    pool_points.push_back(ind.objectives);
  }
  for (const Allocation& genome : *spec.warm) {
    pool.push_back(genome);
    pool_points.push_back(problem.evaluate(genome));
    ++out.evaluations;
  }
  ParetoArchive merged;  // unbounded: a union, not a store
  for (std::size_t i = 0; i < pool.size(); ++i) {
    merged.insert(pool_points[i], i, genome_fingerprint(pool[i]));
  }
  out.front = merged.points();
  if (out_genomes != nullptr) {
    out_genomes->clear();
    for (const ParetoArchive::Entry& e : merged.entries()) {
      out_genomes->push_back(pool[e.tag]);
    }
  }
  return expired;
}

/// Resolves a pareto-query against a computed front: constrained picks
/// scan the ascending-energy front, the unconstrained default is the
/// utility-per-energy knee (the paper's "most efficient operating point").
std::optional<EUPoint> select_point(const ParetoQuery& query,
                                    const std::vector<EUPoint>& front) {
  if (front.empty()) return std::nullopt;
  if (query.max_energy || query.min_utility) {
    std::optional<EUPoint> pick;
    for (const EUPoint& point : front) {
      if (query.max_energy && point.energy > *query.max_energy) break;
      if (query.min_utility && point.utility < *query.min_utility) continue;
      pick = point;  // last survivor == max utility within the budget
    }
    return pick;
  }
  try {
    return analyze_utility_per_energy(front).peak;
  } catch (const std::invalid_argument&) {
    return front.back();  // degenerate energies: fall back to max utility
  }
}

}  // namespace

std::string error_payload(std::string_view id, int code,
                          std::string_view status, std::string_view message) {
  JsonObject o;
  o.field("type", "response");
  if (!id.empty()) o.field("id", id);
  o.field("status", status);
  o.field("code", static_cast<std::int64_t>(code));
  o.field("error", message);
  return o.str();
}

namespace {

/// Removes spec.dropped_machines from an already-built scenario.  The trace
/// is left untouched: drops happen *after* trace generation, so a delta'd
/// scenario optimizes the same workload over fewer machines.
Scenario apply_drops(Scenario scenario, const ScenarioSpec& spec) {
  if (spec.dropped_machines.empty()) return scenario;
  try {
    scenario.system =
        tenant::drop_machine_instances(scenario.system, spec.dropped_machines);
  } catch (const std::invalid_argument& e) {
    throw ProtocolError(std::string("infeasible machine drop: ") + e.what());
  }
  return scenario;
}

}  // namespace

Scenario build_scenario(const ScenarioSpec& spec) {
  if (spec.name == "dataset1") return apply_drops(make_dataset1(spec.seed), spec);
  if (spec.name == "dataset2") return apply_drops(make_dataset2(spec.seed), spec);
  if (spec.name == "dataset3") return apply_drops(make_dataset3(spec.seed), spec);
  if (spec.name == "custom") {
    return apply_drops(
        make_custom_scenario("custom", historical_system(), spec.tasks,
                             spec.window_s, spec.seed),
        spec);
  }
  // Inline system from the request's ETC/EPC matrices.
  const std::size_t num_task_types = spec.etc.size();
  const std::size_t num_machine_types = spec.etc.front().size();
  std::vector<TaskType> task_types(num_task_types);
  for (std::size_t t = 0; t < num_task_types; ++t) {
    task_types[t].name = "task" + std::to_string(t);
  }
  std::vector<MachineType> machine_types(num_machine_types);
  std::vector<Machine> machines;
  for (std::size_t m = 0; m < num_machine_types; ++m) {
    machine_types[m].name = "machine-type" + std::to_string(m);
    const std::size_t count =
        spec.machine_counts.empty() ? 1 : spec.machine_counts[m];
    for (std::size_t i = 0; i < count; ++i) {
      machines.push_back(Machine{static_cast<int>(m),
                                 machine_types[m].name + " #" +
                                     std::to_string(i + 1)});
    }
  }
  try {
    SystemModel system(std::move(task_types), std::move(machine_types),
                       std::move(machines), Matrix::from_rows(spec.etc),
                       Matrix::from_rows(spec.epc));
    return apply_drops(
        make_custom_scenario("inline", std::move(system), spec.tasks,
                             spec.window_s, spec.seed),
        spec);
  } catch (const std::invalid_argument& e) {
    throw ProtocolError(std::string("invalid inline scenario: ") + e.what());
  }
}

namespace {

HandleResult failure(const ServeRequest& request, int code,
                     std::string_view message) {
  return {code, error_payload(request.id, code, "error", message)};
}

/// Runs a handler body, turning what it throws into an error answer:
/// invalid parameter combinations are 400s, anything else a 500.
template <typename Body>
auto guarded(const ServeRequest& request, const Body& body)
    -> decltype(body()) {
  try {
    return body();
  } catch (const ProtocolError& e) {
    return failure(request, kCodeBadRequest, e.what());
  } catch (const std::invalid_argument& e) {
    return failure(request, kCodeBadRequest, e.what());
  } catch (const std::exception& e) {
    return failure(request, kCodeInternal, e.what());
  }
}

/// How an allocate result came about; the response reports it.
struct Provenance {
  bool cache_hit = false;
  bool warm = false;
  bool partial = false;
};

/// The allocate response for `result`.  A worker and a connection thread
/// render the same cached result to the same bytes, apart from `timing`.
HandleResult render_allocate(const ServeRequest& request,
                             const CachedResult& result,
                             const Provenance& provenance, double queue_ms,
                             const Stopwatch& service) {
  std::optional<EUPoint> point;
  if (request.mode == ModeKind::kParetoQuery) {
    point = select_point(request.query, result.front);
    if (!point) {
      return {kCodeUnsatisfiable,
              error_payload(request.id, kCodeUnsatisfiable, "error",
                            "no front point satisfies the query "
                            "constraints"),
              provenance.cache_hit};
    }
  } else if (request.mode == ModeKind::kHeuristic && !result.front.empty()) {
    point = result.front.front();
  }

  const int code = provenance.partial ? kCodePartial : kCodeOk;
  JsonObject o;
  o.field("type", "response");
  if (!request.id.empty()) o.field("id", request.id);
  o.field("status", provenance.partial ? "partial" : "ok");
  o.field("code", static_cast<std::int64_t>(code));
  std::string mode{to_string(request.mode)};
  if (request.mode == ModeKind::kHeuristic) {
    mode += std::string(":") + heuristic_slug(request.heuristic);
  }
  o.field("mode", mode);
  o.field("scenario", request.scenario.name);
  if (!request.tenant.empty()) {
    o.field("tenant", request.tenant);
    o.field("warm", provenance.warm);
  }
  o.field("cache", provenance.cache_hit ? "hit" : "miss");
  o.raw("front", front_json(result.front));
  if (point) o.raw("objectives", point_json(*point));
  if (result.has_allocation) {
    o.raw("allocation", allocation_json(result.allocation));
  }
  o.field("generations", static_cast<std::uint64_t>(result.generations));
  o.field("evaluations", result.evaluations);
  o.field("deadline_exceeded", provenance.partial);
  JsonObject timing;
  timing.field("queue_ms", queue_ms);
  timing.field("service_ms", service.milliseconds());
  o.raw("timing", timing.str());
  return {code, o.str(), provenance.cache_hit};
}

}  // namespace

HandleResult handle_allocate(const ServeRequest& request,
                             const HandlerContext& ctx,
                             std::optional<double> remaining_ms,
                             double queue_ms) {
  const Stopwatch service;
  return guarded(request, [&] {
    const std::string key = request_fingerprint(request);
    std::optional<CachedResult> cached;
    if (ctx.cache != nullptr) cached = ctx.cache->lookup(key);
    if (cached) {
      return render_allocate(request, *cached, {.cache_hit = true}, queue_ms,
                             service);
    }

    // The warm-start archive participates only for tenant-scoped
    // population runs: heuristics are single evaluations and the tenant-
    // less path must stay bit-identical to the offline StudyEngine.
    const bool archivable = ctx.archive != nullptr && !request.tenant.empty() &&
                            request.mode != ModeKind::kHeuristic;
    bool warm = false;
    bool partial = false;
    CachedResult result;
    const Scenario scenario = build_scenario(request.scenario);
    if (request.mode == ModeKind::kHeuristic) {
      result.allocation =
          make_seed(request.heuristic, scenario.system, scenario.trace);
      const Evaluator evaluator(scenario.system, scenario.trace);
      const Evaluation e = evaluator.evaluate(result.allocation);
      result.front = {EUPoint{e.energy, e.utility}};
      result.has_allocation = true;
      result.evaluations = 1;
    } else {
      const UtilityEnergyProblem problem(scenario.system, scenario.trace);
      const std::string scenario_key = scenario_fingerprint(request.scenario);
      std::vector<Allocation> repaired;
      if (archivable) {
        if (const std::optional<tenant::ArchivedFront> hit =
                ctx.archive->lookup(request.tenant, scenario_key)) {
          repaired = tenant::repair_genomes(hit->genomes, problem);
        }
      }
      warm = !repaired.empty();
      EvolveSpec spec;
      spec.population = request.nsga2.population;
      spec.generations = request.nsga2.generations;
      spec.mutation_probability = request.nsga2.mutation_probability;
      spec.seed = request.scenario.seed;
      spec.heuristics = request.nsga2.seeds;
      if (warm) spec.warm = &repaired;
      std::vector<Allocation> genomes;
      partial = run_nsga2(spec, ctx, scenario, problem, remaining_ms, result,
                          archivable ? &genomes : nullptr);
      if (archivable && !partial) {
        ctx.archive->put(request.tenant, scenario_key, "", genomes,
                         result.front);
      }
    }
    // Partial fronts are deadline artifacts, not the fingerprint's true
    // result — never let them satisfy a later full-budget request.
    if (ctx.cache != nullptr && !partial) ctx.cache->insert(key, result);
    return render_allocate(request, result, {.warm = warm, .partial = partial},
                           queue_ms, service);
  });
}

std::optional<HandleResult> answer_from_cache(const ServeRequest& request,
                                              const HandlerContext& ctx) {
  if (ctx.cache == nullptr) return std::nullopt;
  const Stopwatch service;
  return guarded(request, [&]() -> std::optional<HandleResult> {
    const std::optional<CachedResult> cached =
        ctx.cache->probe(request_fingerprint(request));
    if (!cached) return std::nullopt;
    return render_allocate(request, *cached, {.cache_hit = true}, 0.0,
                           service);
  });
}

HandleResult handle_delta(const ServeRequest& request,
                          const HandlerContext& ctx,
                          std::optional<double> remaining_ms,
                          double queue_ms) {
  const Stopwatch service;
  return guarded(request, [&]() -> HandleResult {
    const DeltaRequest& delta = request.delta;
    const std::string base_key = scenario_fingerprint(delta.base);
    const ScenarioSpec mutated = apply_mutations(delta.base, delta.mutations);
    const std::string new_key = scenario_fingerprint(mutated);
    const Scenario scenario = build_scenario(mutated);
    const UtilityEnergyProblem problem(scenario.system, scenario.trace);

    // The archived base genomes were converged over the un-mutated system:
    // remap machine genes across any instances this delta dropped.
    std::vector<Allocation> repaired;
    if (ctx.archive != nullptr) {
      if (const std::optional<tenant::ArchivedFront> hit =
              ctx.archive->lookup(request.tenant, base_key)) {
        std::vector<int> index_map;
        if (!mutated.dropped_machines.empty()) {
          index_map = tenant::machine_index_map(
              scenario.system.num_machines() + mutated.dropped_machines.size(),
              mutated.dropped_machines);
        }
        repaired = tenant::repair_genomes(hit->genomes, problem, index_map);
      }
    }
    const bool warm = !repaired.empty();
    if (!warm && !delta.cold_fallback) {
      if (ctx.metrics != nullptr) {
        ctx.metrics->counter("serve.delta.unknown_base").add(1);
      }
      return {kCodeUnsatisfiable,
              error_payload(request.id, kCodeUnsatisfiable, "error",
                            "unknown base fingerprint " + base_key +
                                " for tenant " + request.tenant)};
    }

    EvolveSpec spec;
    spec.population = request.nsga2.population;
    spec.mutation_probability = request.nsga2.mutation_probability;
    spec.seed = mutated.seed;
    if (warm) {
      // Polish, don't restart: a converged-and-repaired population needs a
      // fraction of the cold budget (the delta-evaluator makes these
      // generations cheap, too).
      spec.generations =
          delta.polish_generations != 0
              ? delta.polish_generations
              : std::max<std::size_t>(1, request.nsga2.generations / 16);
      spec.warm = &repaired;
    } else {
      spec.generations = request.nsga2.generations;
      spec.heuristics = request.nsga2.seeds;
    }

    CachedResult result;
    std::vector<Allocation> genomes;
    const bool partial = run_nsga2(spec, ctx, scenario, problem, remaining_ms,
                                   result, &genomes);
    if (ctx.archive != nullptr && !partial) {
      ctx.archive->put(request.tenant, new_key, warm ? base_key : "", genomes,
                       result.front);
    }
    if (ctx.metrics != nullptr) {
      ctx.metrics->counter(warm ? "serve.delta.warm" : "serve.delta.cold")
          .add(1);
    }

    const int code = partial ? kCodePartial : kCodeOk;
    JsonObject o;
    o.field("type", "response");
    if (!request.id.empty()) o.field("id", request.id);
    o.field("status", partial ? "partial" : "ok");
    o.field("code", static_cast<std::int64_t>(code));
    o.field("mode", "nsga2");
    o.field("scenario", mutated.name);
    o.field("tenant", request.tenant);
    o.field("warm", warm);
    o.field("base_fingerprint", base_key);
    o.field("fingerprint", new_key);
    o.raw("front", front_json(result.front));
    o.field("generations", static_cast<std::uint64_t>(result.generations));
    o.field("evaluations", result.evaluations);
    o.field("deadline_exceeded", partial);
    JsonObject timing;
    timing.field("queue_ms", queue_ms);
    timing.field("service_ms", service.milliseconds());
    o.raw("timing", timing.str());
    return {code, o.str()};
  });
}

}  // namespace eus::serve
