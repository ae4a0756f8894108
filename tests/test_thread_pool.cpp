#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace eus {
namespace {

TEST(ThreadPool, DefaultSizeAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1U);
}

TEST(ThreadPool, ExplicitSize) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3U);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  pool.parallel_for(visits.size(),
                    [&](std::size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSingleItem) {
  ThreadPool pool(4);
  int value = 0;
  pool.parallel_for(1, [&](std::size_t i) { value = static_cast<int>(i) + 7; });
  EXPECT_EQ(value, 7);
}

TEST(ThreadPool, ComputesCorrectSum) {
  ThreadPool pool(4);
  std::vector<long> out(5000);
  pool.parallel_for(out.size(), [&](std::size_t i) {
    out[i] = static_cast<long>(i) * 2;
  });
  const long total = std::accumulate(out.begin(), out.end(), 0L);
  EXPECT_EQ(total, 2L * 4999 * 5000 / 2);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 20; ++round) {
    pool.parallel_for(50, [&](std::size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 5) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(4, [](std::size_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> counter{0};
  pool.parallel_for(10, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, SingleWorkerStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.parallel_for(100, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, MoreBlocksThanItems) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  pool.parallel_for(3, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // The StudyEngine pattern: population tasks at the top level, each
  // fanning its offspring-pair tasks onto the *same* pool.  With fewer
  // workers than outer tasks, completion requires the work-helping wait.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.parallel_for(6, [&](std::size_t) {
    pool.parallel_for(50, [&](std::size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 6 * 50);
}

TEST(ThreadPool, DeeplyNestedParallelFor) {
  ThreadPool pool(1);  // single worker: helping is the only way forward
  std::atomic<int> counter{0};
  pool.parallel_for(3, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) {
      pool.parallel_for(5, [&](std::size_t) { counter.fetch_add(1); });
    });
  });
  EXPECT_EQ(counter.load(), 3 * 4 * 5);
}

TEST(ThreadPool, NestedExceptionPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4,
                        [&](std::size_t) {
                          pool.parallel_for(4, [](std::size_t i) {
                            if (i == 2) throw std::runtime_error("inner");
                          });
                        }),
      std::runtime_error);
  // Still usable afterwards.
  std::atomic<int> counter{0};
  pool.parallel_for(10, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

}  // namespace
}  // namespace eus
