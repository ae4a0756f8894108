#pragma once

// The BENCH_results.json model: what one eus_bench invocation measured.
//
// Schema (schema_version 1):
//   {
//     "schema_version": 1,
//     "git_sha": "<40 hex or 'unknown'>",
//     "machine": {"host": "...", "hardware_threads": N},
//     "config": {"scale": .., "seed": .., "threads": ..,
//                "warmup": .., "repetitions": ..},
//     "scenarios": {
//       "<name>": {
//         "exit_code": 0,
//         "wall_s": {"samples": [..], "min": .., "max": .., "mean": ..,
//                    "median": .., "mad": ..},
//         "counters": {"nsga2.evaluations": .., "nsga2.generations": .., ...},
//         "timers_s": {"nsga2.evaluation_s": .., ...}
//       }, ...
//     }
//   }
//
// Counters/timers are per-repetition deltas of the scenario's
// MetricsRegistry, reduced to the median across measured repetitions.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "benchkit/json_value.hpp"

#include "benchkit/stats.hpp"

namespace eus::benchkit {

struct ScenarioResult {
  std::string name;
  int exit_code = 0;
  std::vector<double> wall_s;  ///< one sample per measured repetition
  std::map<std::string, double> counters;  ///< median per-rep delta
  std::map<std::string, double> timers_s;  ///< median per-rep seconds

  [[nodiscard]] Aggregate wall() const { return aggregate(wall_s); }

  /// Flat metric lookup for baseline gating: "wall_s" (the median),
  /// "counter.<name>" or "timer.<name>".  std::nullopt when unknown.
  [[nodiscard]] std::optional<double> metric(const std::string& id) const;
};

struct MachineInfo {
  std::string host;
  unsigned hardware_threads = 0;
};

struct RunConfig {
  double scale = 1.0;          ///< resolved EUS_SCALE
  std::uint64_t seed = 0;      ///< resolved EUS_SEED
  std::size_t threads = 0;     ///< resolved EUS_THREADS (0 = all cores)
  std::size_t warmup = 0;
  std::size_t repetitions = 1;
};

struct BenchResults {
  int schema_version = 1;
  std::string git_sha = "unknown";
  MachineInfo machine;
  RunConfig config;
  std::vector<ScenarioResult> scenarios;

  [[nodiscard]] const ScenarioResult* find(const std::string& name) const;
};

/// Serializes to the schema above (stable key order; scenarios sorted).
[[nodiscard]] std::string to_json(const BenchResults& results);

/// Parses a document produced by to_json().  Throws std::runtime_error on
/// schema violations (wrong schema_version, missing scenarios table).
[[nodiscard]] BenchResults results_from_json(const JsonValue& doc);

/// Hostname + hardware thread count of this process's machine.
[[nodiscard]] MachineInfo local_machine();

/// Commit id for the results header: $GITHUB_SHA, then $EUS_GIT_SHA, then
/// "unknown" — the harness never shells out.
[[nodiscard]] std::string discover_git_sha();

}  // namespace eus::benchkit
