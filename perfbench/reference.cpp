#include "reference.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

std::uint64_t xorshift(std::uint64_t& state) {
  state ^= state << 13U;
  state ^= state >> 7U;
  state ^= state << 17U;
  return state;
}

volatile double g_sink = 0.0;

double job_ms() {
  // Storage outlives the call, so after the first call the job allocates
  // nothing from the operating system and takes no page faults.
  static std::vector<double> values(std::size_t{1} << 15U);
  static std::unordered_map<std::uint64_t, std::uint64_t> counts(1U << 17U);
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  double sum = 0.0;
  for (int round = 0; round < 2; ++round) {
    for (double& v : values) {
      v = static_cast<double>(xorshift(state) >> 11U) * 0x1.0p-53;
    }
    std::sort(values.begin(), values.end());
    sum += values[values.size() / 2];
  }
  counts.clear();
  for (std::uint64_t i = 0; i < 100000; ++i) {
    counts[xorshift(state) & 0xffffU] += i;
  }
  sum += static_cast<double>(counts.size());
  g_sink = sum;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

double reference_ms() {
  // Back-to-back runs of the job differ by up to 25% on their own (a timer
  // tick, a burst on the sibling core); the fastest of three does not.
  return std::min({job_ms(), job_ms(), job_ms()});
}

}  // namespace perfbench
