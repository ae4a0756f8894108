#pragma once

// The study executor behind every figure bench: evolves all populations of
// a seeding study *concurrently* on one shared ThreadPool.  Populations are
// top-level pool tasks.  Each builds its own greedy seeds (every heuristic
// once across the study, by whichever population needs it first), then
// fans each generation's offspring pairs out as nested tasks on the same
// pool (parallel_for's work-helping makes the nesting deadlock-free).
//
// Scheduling refactor only: every population owns an independent RNG stream
// (seed perturbed per population, exactly as the serial harness always did)
// and fitness evaluation is pure, so results are bit-identical to the
// serial path for a fixed seed, at any thread count.
//
// Optional observability: a shared MetricsRegistry aggregates counters and
// phase timers across populations, and a RunRecorder emits a JSONL record
// per (population, checkpoint) plus config/summary lines.

#include <memory>
#include <string>
#include <vector>

#include "core/study.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_recorder.hpp"
#include "util/thread_pool.hpp"

namespace eus {

/// Per-population seed perturbation: population p evolves with
/// base_seed + kPopulationSeedStride * (p + 1), giving every population an
/// independent RNG stream.  Exposed so other drivers (eus_served's nsga2
/// handler) can reproduce a StudyEngine population bit-for-bit.
inline constexpr std::uint64_t kPopulationSeedStride = 0x9e37;

struct StudyEngineConfig {
  /// Shared pool size: 0 = hardware concurrency, 1 = fully serial (no pool,
  /// the legacy run_seeding_study path), n > 1 = n workers.
  std::size_t threads = 1;
  /// Optional shared metrics sink, threaded into every Nsga2 instance and
  /// snapshotted into the run record's summary.  Must outlive the engine.
  MetricsRegistry* metrics = nullptr;
  /// Optional JSONL run recorder.  Must outlive the engine.
  RunRecorder* recorder = nullptr;
  /// Label written into the recorder's config record.
  std::string study_label = "seeding-study";
};

class StudyEngine {
 public:
  explicit StudyEngine(StudyEngineConfig config = {});
  ~StudyEngine();

  StudyEngine(const StudyEngine&) = delete;
  StudyEngine& operator=(const StudyEngine&) = delete;

  /// Runs every population through the checkpoint schedule (see
  /// run_seeding_study for the semantics).  Checkpoints must be non-empty
  /// and strictly increasing; specs must be non-empty.  Progress callbacks
  /// are serialized but arrive interleaved across populations when running
  /// concurrently; result ordering matches `specs` regardless.
  [[nodiscard]] StudyResult run(const BiObjectiveProblem& problem,
                                const Nsga2Config& base_config,
                                const std::vector<std::size_t>& checkpoints,
                                const std::vector<PopulationSpec>& specs,
                                const StudyProgress& progress = {});

  /// Resolved worker count (1 when serial).
  [[nodiscard]] std::size_t threads() const noexcept {
    return pool_ ? pool_->size() : 1;
  }

 private:
  StudyEngineConfig config_;
  std::unique_ptr<ThreadPool> pool_;  ///< null when threads == 1
};

}  // namespace eus
