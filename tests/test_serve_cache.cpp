// FrontCache: strict LRU behavior, recency refresh on hit, eviction
// accounting, the metrics wiring, and coherence under the concurrent
// probes, inserts and resizes of a running daemon.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "serve/front_cache.hpp"

namespace eus::serve {
namespace {

CachedResult result_with(double energy, double utility) {
  CachedResult r;
  r.front = {EUPoint{energy, utility}};
  r.evaluations = 1;
  return r;
}

TEST(FrontCache, MissThenHit) {
  FrontCache cache(4);
  EXPECT_FALSE(cache.lookup("a").has_value());
  cache.insert("a", result_with(1.0, 2.0));
  const std::optional<CachedResult> hit = cache.lookup("a");
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->front.size(), 1U);
  EXPECT_EQ(hit->front[0].energy, 1.0);
  EXPECT_EQ(hit->front[0].utility, 2.0);
  EXPECT_EQ(cache.hits(), 1U);
  EXPECT_EQ(cache.misses(), 1U);
}

TEST(FrontCache, EvictsLeastRecentlyUsed) {
  FrontCache cache(2);
  cache.insert("a", result_with(1.0, 1.0));
  cache.insert("b", result_with(2.0, 2.0));
  ASSERT_TRUE(cache.lookup("a").has_value());  // refresh "a" — "b" is LRU
  cache.insert("c", result_with(3.0, 3.0));   // evicts "b"

  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
  EXPECT_EQ(cache.evictions(), 1U);
  EXPECT_EQ(cache.size(), 2U);
}

TEST(FrontCache, ReinsertRefreshesInsteadOfDuplicating) {
  FrontCache cache(2);
  cache.insert("a", result_with(1.0, 1.0));
  cache.insert("b", result_with(2.0, 2.0));
  cache.insert("a", result_with(9.0, 9.0));  // refresh + overwrite
  EXPECT_EQ(cache.size(), 2U);
  const std::optional<CachedResult> hit = cache.lookup("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->front[0].energy, 9.0);

  cache.insert("c", result_with(3.0, 3.0));  // "b" is now the LRU
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("a").has_value());
}

TEST(FrontCache, CapacityClampsToOne) {
  FrontCache cache(0);
  EXPECT_EQ(cache.capacity(), 1U);
  cache.insert("a", result_with(1.0, 1.0));
  cache.insert("b", result_with(2.0, 2.0));
  EXPECT_EQ(cache.size(), 1U);
  EXPECT_FALSE(cache.lookup("a").has_value());
  EXPECT_TRUE(cache.lookup("b").has_value());
}

TEST(FrontCache, PublishesMetricsCounters) {
  MetricsRegistry metrics;
  FrontCache cache(1, &metrics);
  (void)cache.lookup("a");                    // miss
  cache.insert("a", result_with(1.0, 1.0));
  (void)cache.lookup("a");                    // hit
  cache.insert("b", result_with(2.0, 2.0));   // evicts "a"

  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("serve.cache.hits"), 1U);
  EXPECT_EQ(snap.counters.at("serve.cache.misses"), 1U);
  EXPECT_EQ(snap.counters.at("serve.cache.evictions"), 1U);
}

TEST(FrontCache, ProbeCountsHitsButNotMisses) {
  MetricsRegistry metrics;
  FrontCache cache(2, &metrics);
  EXPECT_FALSE(cache.probe("a").has_value());   // uncounted
  EXPECT_FALSE(cache.lookup("a").has_value());  // the repeat counts it
  cache.insert("a", result_with(1.0, 2.0));
  const std::optional<CachedResult> hit = cache.probe("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->front[0].utility, 2.0);
  EXPECT_EQ(cache.hits(), 1U);
  EXPECT_EQ(cache.misses(), 1U);

  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("serve.cache.hits"), 1U);
  EXPECT_EQ(snap.counters.at("serve.cache.misses"), 1U);
}

TEST(FrontCache, ConcurrentLookupsInsertsAndResizeStayCoherent) {
  // The daemon's connection threads probe the cache while workers insert
  // into it and the admin plane resizes it.  Every key maps to one front,
  // so any hit can be checked against its key; thread 0 alone resizes, so
  // it can check size() against a capacity() nobody else moves.
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kKeys = 24;
  constexpr std::size_t kRounds = 3000;
  constexpr std::size_t kMaxCapacity = 16;
  FrontCache cache(kMaxCapacity);
  std::atomic<std::uint64_t> counted{0};  // lookups + probe hits
  std::atomic<int> wrong_front{0};
  std::atomic<int> over_capacity{0};

  const auto check = [&](const std::optional<CachedResult>& hit, double k) {
    if (!hit) return;
    if (hit->front.size() != 1 || hit->front[0].energy != k ||
        hit->front[0].utility != -k) {
      wrong_front.fetch_add(1);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kRounds; ++i) {
        const std::size_t k = (i * 7 + t * 5) % kKeys;
        const std::string key = "key" + std::to_string(k);
        const auto value = static_cast<double>(k);
        switch ((i + t) % 3) {
          case 0:
            cache.insert(key, result_with(value, -value));
            break;
          case 1:
            check(cache.lookup(key), value);
            counted.fetch_add(1);
            break;
          default: {
            const std::optional<CachedResult> hit = cache.probe(key);
            check(hit, value);
            if (hit) counted.fetch_add(1);
            break;
          }
        }
        if (t == 0 && i % 50 == 0) {
          cache.set_capacity(1 + i / 50 % kMaxCapacity);
        }
        const std::size_t cap = t == 0 ? cache.capacity() : kMaxCapacity;
        if (cache.size() > cap) over_capacity.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(wrong_front.load(), 0);
  EXPECT_EQ(over_capacity.load(), 0);
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_GT(cache.hits(), 0U);
  EXPECT_GT(cache.misses(), 0U);
  EXPECT_EQ(cache.hits() + cache.misses(), counted.load());
}

}  // namespace
}  // namespace eus::serve
