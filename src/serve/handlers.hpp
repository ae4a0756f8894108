#pragma once

// Query handlers behind the daemon's worker threads: turn one parsed
// allocate request into a response payload by driving the existing
// heuristics / NSGA-II / Pareto machinery.
//
// The nsga2 mode reproduces a StudyEngine single-population run bit-for-
// bit: the same seed perturbation (kPopulationSeedStride), the same seed
// chromosomes, the same generation count — so a served front is
// byte-identical to the offline study's.  The only serve-specific twist is
// deadline enforcement: generations run in short slices with the clock
// checked in between, and on expiry the best front evolved *so far* is
// returned, flagged `"status":"partial"` / code 206.
//
// Warm starts (docs/tenant.md): a request carrying a tenant id consults
// the per-tenant ArchiveStore; archived genomes of the same scenario
// fingerprint are repaired and injected into generation 0, and the
// response front is the nondominated union of the evolved front with the
// re-evaluated archive — which is why a warm front weakly dominates the
// cold front at the same budget (the archive holds the deterministic cold
// run's own converged points).  The "delta" handler mutates an archived
// base scenario and re-polishes its front in a fraction of the cold
// generation budget, riding the incremental delta-evaluator.
//
// Handlers are stateless and thread-safe; cross-request state (the LRU
// front cache, the warm-start archive, the shared evaluation pool,
// metrics) arrives through the HandlerContext.  answer_from_cache is the
// one handler the server runs on a connection thread: a cache hit is a
// lookup and a render, so it never waits for a worker.

#include <optional>
#include <string>

#include "serve/front_cache.hpp"
#include "serve/protocol.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "tenant/archive_store.hpp"
#include "util/thread_pool.hpp"
#include "workload/scenarios.hpp"

namespace eus::serve {

/// HTTP-flavored status codes used across the protocol: 200 ok, 206
/// partial (deadline hit), 400 bad request, 404 unsatisfiable query,
/// 500 handler failure, 503 overloaded/draining.
inline constexpr int kCodeOk = 200;
inline constexpr int kCodePartial = 206;
inline constexpr int kCodeBadRequest = 400;
inline constexpr int kCodeUnsatisfiable = 404;
inline constexpr int kCodeInternal = 500;
inline constexpr int kCodeOverloaded = 503;

struct HandlerContext {
  MetricsRegistry* metrics = nullptr;  ///< serve.* + nsga2.* sink (optional)
  FrontCache* cache = nullptr;         ///< LRU result cache (optional)
  ThreadPool* pool = nullptr;          ///< shared evaluation pool (optional)
  tenant::ArchiveStore* archive = nullptr;  ///< warm-start store (optional)
};

struct HandleResult {
  int code = kCodeOk;
  std::string payload;     ///< complete response JSON document
  bool cache_hit = false;  ///< answered from the front cache
};

/// Starts a response document with the envelope every answer carries:
/// "type":"response", the id (when non-empty), status and code.
[[nodiscard]] JsonObject response_envelope(std::string_view id,
                                           std::string_view status, int code);

/// The status code of a response document, read from its envelope without
/// building the document: the router relays a backend's answer verbatim
/// and classifies it by this alone.  One walk over the top-level value
/// skips strings (escapes included), nested objects and arrays (by bracket
/// depth), numbers and literals, and reads "code" only as a member of the
/// top-level object (the last one, as parsing keeps it; the key is matched
/// as written, unescaped).  A code that is a number within int range
/// answers itself, read with strtod as util::parse_json reads it.  A
/// missing or non-number code, or a complete non-object document, answers
/// kCodeOk.  A number out of int range, an unclosed string or bracket, or
/// bytes after the value answer kCodeInternal.  The spelling of skipped
/// numbers and literals is not checked.
[[nodiscard]] int response_status(std::string_view payload);

/// Builds the canonical error/overload payload (also used by the daemons
/// for framing errors and backpressure, where no handler ever runs).
[[nodiscard]] std::string error_payload(std::string_view id, int code,
                                        std::string_view status,
                                        std::string_view message);

/// Materializes the scenario a request names (including any
/// dropped_machines a delta mutation applied).  Deterministic; throws
/// ProtocolError (inline system rejected by SystemModel validation, or an
/// infeasible machine drop) on incoherent specs.
[[nodiscard]] Scenario build_scenario(const ScenarioSpec& spec);

/// Executes one allocate request end to end.  `remaining_ms` is the
/// request deadline budget left at dispatch time (nullopt = no deadline);
/// `queue_ms` is echoed into the response's timing block.  Never throws
/// ProtocolError past the boundary — invalid parameter combinations come
/// back as a 400 payload.
[[nodiscard]] HandleResult handle_allocate(const ServeRequest& request,
                                           const HandlerContext& ctx,
                                           std::optional<double> remaining_ms,
                                           double queue_ms);

/// The connection thread's share of an allocate request: answers it from
/// the front cache when its result is resident, rendered exactly as
/// handle_allocate renders a hit but with `timing.queue_ms` 0.  Returns
/// nullopt on a miss (or with no cache) without counting it, since
/// handle_allocate probes again and counts the miss itself.
[[nodiscard]] std::optional<HandleResult> answer_from_cache(
    const ServeRequest& request, const HandlerContext& ctx);

/// Executes one delta request: resolves the tenant's archived base front,
/// repairs it for the mutated scenario, and re-polishes it over
/// `polish_generations` (a fraction of the cold budget).  An archive miss
/// either falls back to a full cold run (cold_fallback, the default) or
/// answers 404.  Results are archived under the mutated scenario's
/// fingerprint with the base as lineage; delta responses are never
/// front-cached (they depend on archive state).
[[nodiscard]] HandleResult handle_delta(const ServeRequest& request,
                                        const HandlerContext& ctx,
                                        std::optional<double> remaining_ms,
                                        double queue_ms);

}  // namespace eus::serve
