#pragma once

// Shared plumbing of the repository benchmark: command-line options, the
// result report (the one-line JSON the benchmark ends with), sample
// statistics, process memory, and the hypervolume normalization every
// workload's `front_hv` uses.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pareto/point.hpp"
#include "workload/scenarios.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;   ///< where eus_served / eus_router were built
  std::string work_dir;  ///< scratch space for fleet configs and child logs
};

/// Everything a run reports.  `check` counts one attempted operation and,
/// when it fails, one failure; the last stdout line is `json()`.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// A program counter that no longer exists: reported as -1 and named in
  /// the `absent:` note instead of failing the run.
  void absent(const std::string& name, const std::string& unit);
  void note(const std::string& line);
  /// Counts one operation; false counts a failure and prints `what`.
  bool check(bool ok, const std::string& what);
  void add_ops(std::uint64_t attempted, std::uint64_t failed);

  [[nodiscard]] bool correct() const noexcept { return failed_ == 0; }
  [[nodiscard]] std::string json() const;
  void print_summary() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> absent_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Type-7 (linear interpolation) sample quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(const std::vector<double>& values);
[[nodiscard]] double mean(const std::vector<double>& values);
/// Mean without the lowest and highest value (plain mean below 4 values):
/// averages out per-instance variation while one disturbed instance
/// cannot move it much.
[[nodiscard]] double trimmed_mean(std::vector<double> values);

/// Peak resident set (VmHWM) of a process in MiB; pid 0 = this process.
/// Returns 0 when /proc cannot be read.
[[nodiscard]] double peak_rss_mb(int pid = 0);

/// Removes every EUS_* variable from this process's environment, so
/// neither the library nor any child process picks up a knob the
/// benchmark did not set.
void scrub_eus_environment();

/// Fixed normalization frame for one scenario, from sched/bounds only:
/// the ideal corner is (energy lower bound, contention-free utility upper
/// bound) and the reference corner is (kEnergyRefFactor x energy lower
/// bound, 0).  Never derived from any front.
struct HvFrame {
  double energy_lower = 0.0;
  double energy_ref = 0.0;
  double utility_upper = 0.0;
};
inline constexpr double kEnergyRefFactor = 4.0;

[[nodiscard]] HvFrame hv_frame(const eus::Scenario& scenario);

/// Hypervolume of `front` against the frame's reference corner, divided by
/// the frame's box area (so 1.0 would be the unreachable ideal point).
/// Points beyond the reference energy contribute nothing.
[[nodiscard]] double normalized_hv(const std::vector<eus::EUPoint>& front,
                                   const HvFrame& frame);

/// Wall-clock helpers over std::chrono::steady_clock.
using Clock = std::chrono::steady_clock;
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Times `fn` `reps` times and returns the median duration in microseconds.
template <typename Fn>
double median_us(std::size_t reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(seconds_since(t0) * 1e6);
  }
  return median(samples);
}

/// Deterministic 64-bit mix of the workload seed with a stream id (the
/// benchmark's own input generator; independent of the program's RNG).
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
