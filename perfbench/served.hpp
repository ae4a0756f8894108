#pragma once

// The served workloads: the built `eus_router` fronting two single-worker
// `eus_served` backends, all child processes of the benchmark, driven
// closed-loop over four connections through the wire protocol.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/protocol.hpp"
#include "util/json_value.hpp"

namespace perfbench {

/// The router plus its backends.  The constructor returns once the router
/// answers healthz; the destructor stops every child and waits for it.
class Fleet {
 public:
  Fleet(const Options& options, std::size_t backends);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return router_port_; }
  [[nodiscard]] const std::vector<std::uint16_t>& backend_ports()
      const noexcept {
    return backend_ports_;
  }
  /// Sum of the children's VmHWM, in MiB (read while they are alive).
  [[nodiscard]] double peak_rss_mb() const;
  /// SIGTERM every child, router first, and wait for each to exit.
  void stop();

 private:
  struct Child {
    int pid = -1;
    int out_fd = -1;
  };
  Child spawn(const std::vector<std::string>& argv, const std::string& log);
  std::uint16_t await_port(const Child& child, const std::string& what);

  std::vector<Child> children_;  ///< router last
  std::vector<std::uint16_t> backend_ports_;
  std::uint16_t router_port_ = 0;
};

/// One request/response round trip on a fresh or pooled connection,
/// parsed.  Throws on transport or parse failure.
[[nodiscard]] eus::util::JsonValue call_json(std::uint16_t port,
                                             const std::string& payload);

/// The `counters` section of a daemon's metricsz response.
[[nodiscard]] std::map<std::string, double> scrape_counters(
    std::uint16_t port);

/// Request classes of the served streams.
enum class Cls { kHit, kQuery, kHeuristic, kCold, kDelta, kWarmAlloc };
inline constexpr std::size_t kNumCls = 6;
[[nodiscard]] const char* cls_name(Cls c) noexcept;

/// One generated request, kept with everything needed to check its answer.
struct Spec {
  Cls cls = Cls::kHit;
  std::string tenant;
  eus::serve::ScenarioSpec scenario;  ///< for deltas: the mutated scenario
  eus::serve::ScenarioSpec base;      ///< deltas only
  std::vector<eus::serve::ScenarioMutation> mutations;  ///< deltas only
  eus::SeedHeuristic heuristic = eus::SeedHeuristic::kMinEnergy;
  std::size_t population = 16;
  std::size_t generations = 16;
  std::vector<eus::SeedHeuristic> seeds;
  bool expect_warm = false;
};

[[nodiscard]] std::string render(const Spec& spec);

/// One answered request as the client saw it.
struct Sample {
  std::size_t spec = 0;  ///< index into the run's spec log
  double rtt_ms = 0.0;
  double queue_ms = -1.0;   ///< from the response's timing block
  double service_ms = -1.0;  ///< from the response's timing block
  bool ok = false;
  bool cache_hit = false;
  bool warm = false;
  std::vector<eus::EUPoint> front;
  eus::EUPoint objectives;
};

/// A served traffic mix: priming requests (part of set-up) and one
/// deterministic request stream per connection.
class Mix {
 public:
  Mix(std::string workload, std::uint64_t seed);

  /// Requests that warm the fleet before measuring (front-cache entries of
  /// the hot set, or each tenant's base front).
  [[nodiscard]] std::vector<Spec> priming() const;
  /// The next request of connection `conn`.  Tenant chains are per
  /// connection, so a tenant's requests are strictly sequential.
  [[nodiscard]] Spec next(std::size_t conn);
  /// Feeds an answered request back into the stream (advances a tenant's
  /// chain only when its delta succeeded).
  void answered(std::size_t conn, const Spec& spec, bool ok);

  /// Workload used by the offline workloads' served probe: heuristic and
  /// small NSGA-II requests on the study dataset.
  static Mix probe(int dataset, std::uint64_t seed);
  /// The scenario a layer replay of this mix uses: the first hot-set
  /// entry, the first tenant's base, or the probe's dataset.
  [[nodiscard]] eus::serve::ScenarioSpec representative() const;

 private:
  struct Tenant {
    std::string id;
    eus::serve::ScenarioSpec latest;  ///< the last non-drop delta's result
  };
  struct Conn {
    std::uint64_t rng_state = 0;
    std::uint64_t count = 0;
    std::vector<Tenant> tenants;
  };
  double uniform(Conn& c);
  std::uint64_t below(Conn& c, std::uint64_t n);

  std::string workload_;
  std::uint64_t seed_ = 0;
  int probe_dataset_ = 0;
  std::vector<eus::serve::ScenarioSpec> hot_;
  std::vector<Conn> conns_;
};

inline constexpr std::size_t kConnections = 4;
inline constexpr std::size_t kBackends = 2;

/// Drives `mix` closed-loop over kConnections connections for `seconds`,
/// or for exactly `per_conn_cap` requests per connection when non-zero.
/// Appends every issued spec to `specs` and returns one sample per request.
[[nodiscard]] std::vector<Sample> closed_loop(std::uint16_t port, Mix& mix,
                                              double seconds,
                                              std::vector<Spec>& specs,
                                              double& elapsed_s,
                                              std::size_t per_conn_cap = 0);

[[nodiscard]] eus::serve::ScenarioSpec custom_spec(std::uint64_t seed,
                                                   std::size_t tasks,
                                                   double window_s);
[[nodiscard]] eus::serve::ScenarioSpec dataset_spec(int dataset,
                                                    std::uint64_t seed);
/// The offline counterpart of a served scenario, built through the
/// workload layer without the serve layer: the oracle side of the
/// bit-identity checks.
[[nodiscard]] eus::Scenario offline_scenario(
    const eus::serve::ScenarioSpec& spec);

/// Checks every sample (status code, warm/hit expectations, nondominated
/// delta fronts) and a seeded sample against in-process oracles (offline
/// StudyEngine population 0 for cold nsga2, Evaluator::evaluate(make_seed)
/// for heuristics).  Counts every request and check in `report`.
void check_samples(const std::vector<Spec>& specs,
                   const std::vector<Sample>& samples, Report& report);

/// Mean normalized hypervolume over the samples' fronts.
[[nodiscard]] double mean_front_hv(const std::vector<Spec>& specs,
                                   const std::vector<Sample>& samples);

/// Spawns kSetupRepeats fleets (timing spawn + healthz + priming), keeps the
/// last one running for the measurement.
struct FleetSetup {
  std::unique_ptr<Fleet> fleet;
  std::vector<double> setup_s;
};
[[nodiscard]] FleetSetup set_up_fleet(const Options& options, Mix& mix,
                                      Report& report);

/// End-to-end run of serve_mix / tenant_delta (trace 0).
void run_served_workload(const Options& options, Report& report);

[[nodiscard]] bool is_served_workload(const std::string& workload);

}  // namespace perfbench
