#pragma once

// Lightweight process-local metrics: named counters, gauges and timers
// registered once and updated lock-free from hot paths (fitness evaluation
// runs on the population-evaluation pool).  A MetricsRegistry is shared by
// every algorithm instance of a study, so counts aggregate across
// concurrently evolving populations.
//
// Hot-path contract: resolve Counter&/TimerMetric& once (constructor time),
// then update through the reference — updates are a single relaxed atomic
// RMW, never a name lookup.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace eus {

/// Monotonic event count (evaluations, dropped tasks, generations).
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (front size, offered load).
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Lock-free log-bucketed distribution for latency-style samples.  Each
/// observation lands in the power-of-two nanosecond bucket of its duration
/// (bucket i covers [2^(i-1), 2^i) ns), so the whole histogram is 64 relaxed
/// atomic counters: cheap enough for a per-request hot path, and quantiles
/// are accurate to within one octave — plenty for p50/p95 dashboards.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void observe(std::chrono::nanoseconds elapsed) noexcept {
    const std::int64_t ns = elapsed.count();
    const std::uint64_t clamped =
        ns <= 0 ? 0ULL : static_cast<std::uint64_t>(ns);
    buckets_[bucket_of(clamped)].fetch_add(1, std::memory_order_relaxed);
  }
  void observe_seconds(double seconds) noexcept {
    observe(std::chrono::nanoseconds(
        seconds <= 0.0 ? 0LL : static_cast<std::int64_t>(seconds * 1e9)));
  }

  [[nodiscard]] std::uint64_t count() const noexcept;

  /// Approximate q-quantile (q in [0,1]) in seconds: the upper bound of the
  /// bucket holding the q-th sample.  0 when empty.
  [[nodiscard]] double quantile_seconds(double q) const noexcept;

 private:
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t ns) noexcept {
    std::size_t b = 0;
    while (ns > 0 && b + 1 < kBuckets) {
      ns >>= 1U;
      ++b;
    }
    return b;
  }

  std::atomic<std::uint64_t> buckets_[kBuckets]{};
};

/// Accumulated duration plus sample count (phase time splits).
class TimerMetric {
 public:
  void add(std::chrono::nanoseconds elapsed) noexcept {
    total_ns_.fetch_add(static_cast<std::uint64_t>(elapsed.count()),
                        std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] double total_seconds() const noexcept {
    return static_cast<double>(total_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// RAII phase timer; a null target makes it a no-op so instrumented code
/// pays nothing when metrics are disabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(TimerMetric* timer) noexcept
      : timer_(timer),
        start_(timer ? std::chrono::steady_clock::now()
                     : std::chrono::steady_clock::time_point{}) {}
  ~ScopedTimer() {
    if (timer_) timer_->add(std::chrono::steady_clock::now() - start_);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  TimerMetric* timer_;
  std::chrono::steady_clock::time_point start_;
};

/// Point-in-time copy of every registered metric.
struct MetricsSnapshot {
  struct TimerStat {
    double seconds = 0.0;
    std::uint64_t count = 0;
  };
  struct HistogramStat {
    std::uint64_t count = 0;
    double p50_s = 0.0;
    double p95_s = 0.0;
    double p99_s = 0.0;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, TimerStat> timers;
  std::map<std::string, HistogramStat> histograms;
};

class JsonObject;

/// Appends a snapshot's four sections ("counters"/"gauges"/"timers"/
/// "histograms", histogram quantiles in milliseconds) as nested fields of
/// `out`.  Shared by eus_served's `metricsz` responses and the runtime's
/// background diagnostics thread so both emit the identical schema.
void append_snapshot(JsonObject& out, const MetricsSnapshot& snap);

/// Per-interval view of two snapshots of the same registry: counters and
/// timers subtract (names absent from `before` count as zero; a counter
/// that somehow shrank clamps to zero rather than wrapping), gauges keep
/// their `after` value (they are instantaneous, not cumulative).  This is
/// how the bench harness turns one accumulating registry into
/// per-repetition metrics.
[[nodiscard]] MetricsSnapshot snapshot_delta(const MetricsSnapshot& before,
                                             const MetricsSnapshot& after);

/// Thread-safe name -> metric registry.  Lookup is mutex-guarded; returned
/// references stay valid for the registry's lifetime (metrics are
/// heap-allocated and never removed).
class MetricsRegistry {
 public:
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] TimerMetric& timer(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<TimerMetric>, std::less<>> timers_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace eus
