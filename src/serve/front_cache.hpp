#pragma once

// LRU result cache for the daemon, keyed by request fingerprint (see
// protocol.hpp).  Scenario construction and NSGA-II evolution are pure
// functions of the request's scenario + mode parameters, so a repeated
// fingerprint can answer from the cached front/allocation without touching
// the evaluator — and "pareto-query" requests resolve against the front a
// prior "nsga2" request deposited.  Capacity-bounded (strict LRU eviction)
// and mutex-guarded: connection threads probe it while workers insert into
// it, all through one instance.

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "pareto/point.hpp"
#include "sched/allocation.hpp"
#include "telemetry/metrics.hpp"

namespace eus::serve {

/// What one allocate request computes: a front (nsga2 / pareto-query) or a
/// single allocation + objectives (heuristic — front then holds one point).
struct CachedResult {
  std::vector<EUPoint> front;
  Allocation allocation;        ///< heuristic modes only
  bool has_allocation = false;
  std::uint64_t evaluations = 0;
  std::size_t generations = 0;
};

class FrontCache {
 public:
  /// `capacity` = max resident results (>= 1); `metrics`, when set, gets
  /// "serve.cache.hits" / "serve.cache.misses" / "serve.cache.evictions"
  /// counters and must outlive the cache.
  explicit FrontCache(std::size_t capacity = 64,
                      MetricsRegistry* metrics = nullptr);

  FrontCache(const FrontCache&) = delete;
  FrontCache& operator=(const FrontCache&) = delete;

  /// Cached result for `key`, refreshing its recency; nullopt on miss.
  [[nodiscard]] std::optional<CachedResult> lookup(const std::string& key);

  /// lookup() for a caller that repeats it on a miss: a hit is counted and
  /// refreshed as usual, a miss is not counted, so a request probed twice
  /// still counts once in hits + misses.
  [[nodiscard]] std::optional<CachedResult> probe(const std::string& key);

  /// Stores (or refreshes) `result` under `key`, evicting the least
  /// recently used entry when at capacity.
  void insert(const std::string& key, CachedResult result);

  /// Live capacity change (clamped >= 1; the admin plane's
  /// set-cache-entries verb).  Shrinking below the resident count evicts
  /// least-recently-used entries immediately, counted as evictions.
  void set_capacity(std::size_t capacity);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const;
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_;
  }

 private:
  struct Entry {
    std::string key;
    CachedResult result;
  };

  std::optional<CachedResult> find(const std::string& key, bool count_miss);

  std::size_t capacity_;  ///< guarded by mutex_ (live-resizable)
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front == most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  Counter* metric_hits_ = nullptr;
  Counter* metric_misses_ = nullptr;
  Counter* metric_evictions_ = nullptr;
};

}  // namespace eus::serve
