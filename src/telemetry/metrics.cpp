#include "telemetry/metrics.hpp"

#include "telemetry/json.hpp"

namespace eus {

namespace {

template <typename T>
T& get_or_create(std::map<std::string, std::unique_ptr<T>, std::less<>>& map,
                 std::string_view name) {
  const auto it = map.find(name);
  if (it != map.end()) return *it->second;
  return *map.emplace(std::string(name), std::make_unique<T>())
              .first->second;
}

}  // namespace

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::quantile_seconds(double q) const noexcept {
  std::uint64_t counts[kBuckets];
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  const double clamped = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  // Rank of the target sample, 1-based; walk buckets until it is covered.
  const std::uint64_t rank = static_cast<std::uint64_t>(
      clamped * static_cast<double>(total - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (seen >= rank) {
      // Upper bound of bucket i is 2^i ns (bucket 0 holds [0, 1] ns).
      return i >= 63 ? static_cast<double>(~0ULL) * 1e-9
                     : static_cast<double>(1ULL << i) * 1e-9;
    }
  }
  return 0.0;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard lock(mutex_);
  return get_or_create(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard lock(mutex_);
  return get_or_create(gauges_, name);
}

TimerMetric& MetricsRegistry::timer(std::string_view name) {
  const std::lock_guard lock(mutex_);
  return get_or_create(timers_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const std::lock_guard lock(mutex_);
  return get_or_create(histograms_, name);
}

void append_snapshot(JsonObject& out, const MetricsSnapshot& snap) {
  JsonObject counters;
  for (const auto& [name, value] : snap.counters) counters.field(name, value);
  out.raw("counters", counters.str());
  JsonObject gauges;
  for (const auto& [name, value] : snap.gauges) gauges.field(name, value);
  out.raw("gauges", gauges.str());
  JsonObject timers;
  for (const auto& [name, stat] : snap.timers) {
    JsonObject t;
    t.field("seconds", stat.seconds);
    t.field("count", stat.count);
    timers.raw(name, t.str());
  }
  out.raw("timers", timers.str());
  JsonObject histograms;
  for (const auto& [name, stat] : snap.histograms) {
    JsonObject h;
    h.field("count", stat.count);
    h.field("p50_ms", stat.p50_s * 1e3);
    h.field("p95_ms", stat.p95_s * 1e3);
    h.field("p99_ms", stat.p99_s * 1e3);
    histograms.raw(name, h.str());
  }
  out.raw("histograms", histograms.str());
}

MetricsSnapshot snapshot_delta(const MetricsSnapshot& before,
                               const MetricsSnapshot& after) {
  MetricsSnapshot delta;
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    const std::uint64_t prior = it == before.counters.end() ? 0U : it->second;
    delta.counters[name] = value >= prior ? value - prior : 0U;
  }
  delta.gauges = after.gauges;
  for (const auto& [name, stat] : after.timers) {
    const auto it = before.timers.find(name);
    MetricsSnapshot::TimerStat d = stat;
    if (it != before.timers.end()) {
      d.seconds = stat.seconds >= it->second.seconds
                      ? stat.seconds - it->second.seconds
                      : 0.0;
      d.count = stat.count >= it->second.count ? stat.count - it->second.count
                                               : 0U;
    }
    delta.timers[name] = d;
  }
  // Histograms report cumulative distributions; like gauges they keep the
  // `after` view (quantiles of a difference are not well defined).
  delta.histograms = after.histograms;
  return delta;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, t] : timers_) {
    snap.timers[name] = {t->total_seconds(), t->count()};
  }
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = {h->count(), h->quantile_seconds(0.50),
                             h->quantile_seconds(0.95),
                             h->quantile_seconds(0.99)};
  }
  return snap;
}

}  // namespace eus
