// WorkerCrew semantics: capacity backpressure, FIFO order, close-then-
// drain, halt, a concurrent smoke across producers and workers, and live
// resizes that never drop or repeat a job.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <future>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "serve/server.hpp"
#include "util/stopwatch.hpp"

namespace eus::serve {
namespace {

/// Jobs that record their id, then wait until the gate opens.  Declare
/// before the crew, so the crew halts while the jobs' state still lives,
/// and open the gate before the crew halts.
class Jobs {
 public:
  WorkerCrew::Job make(int id) {
    return WorkerCrew::Job([this, id] {
      {
        const std::lock_guard lock(mutex_);
        ran_.push_back(id);
      }
      opened_.wait();
    });
  }
  void open() { gate_.set_value(); }
  [[nodiscard]] std::vector<int> ran() const {
    const std::lock_guard lock(mutex_);
    return ran_;
  }
  [[nodiscard]] std::size_t started() const {
    const std::lock_guard lock(mutex_);
    return ran_.size();
  }

 private:
  std::promise<void> gate_;
  std::shared_future<void> opened_ = gate_.get_future().share();
  mutable std::mutex mutex_;
  std::vector<int> ran_;
};

void wait_until(const std::function<bool()>& ready) {
  const Stopwatch clock;
  while (!ready() && clock.seconds() < 15.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::vector<int> ids(int count) {
  std::vector<int> out(static_cast<std::size_t>(count));
  std::iota(out.begin(), out.end(), 0);
  return out;
}

TEST(WorkerCrew, RefusesPushWhenFull) {
  Jobs jobs;
  WorkerCrew crew(2);
  EXPECT_TRUE(crew.try_push(jobs.make(1)));
  EXPECT_TRUE(crew.try_push(jobs.make(2)));
  WorkerCrew::Job third = jobs.make(3);
  EXPECT_FALSE(crew.try_push(std::move(third)));  // explicit backpressure
  EXPECT_TRUE(third.valid());  // refused: the caller still owns it
  EXPECT_EQ(crew.size(), 2U);

  crew.resize(1);
  wait_until([&] { return jobs.started() == 1; });
  EXPECT_EQ(jobs.ran(), std::vector<int>{1});  // FIFO
  EXPECT_EQ(crew.size(), 1U);
  EXPECT_TRUE(crew.try_push(std::move(third)));
  EXPECT_FALSE(crew.try_push(jobs.make(4)));
  jobs.open();
  crew.halt();
  EXPECT_EQ(jobs.ran(), (std::vector<int>{1, 2, 3}));
}

TEST(WorkerCrew, CapacityClampsToOne) {
  Jobs jobs;
  WorkerCrew crew(0);
  EXPECT_EQ(crew.capacity(), 1U);
  EXPECT_TRUE(crew.try_push(jobs.make(1)));
  EXPECT_FALSE(crew.try_push(jobs.make(2)));
  crew.set_capacity(0);
  EXPECT_EQ(crew.capacity(), 1U);
  crew.resize(0);  // the worker target clamps the same way
  EXPECT_EQ(crew.target(), 1U);
  jobs.open();
  crew.halt();
  EXPECT_EQ(jobs.ran(), std::vector<int>{1});
}

TEST(WorkerCrew, CloseRefusesNewWorkButQueuedJobsRun) {
  Jobs jobs;
  WorkerCrew crew(4);
  crew.resize(1);
  EXPECT_TRUE(crew.try_push(jobs.make(10)));
  EXPECT_TRUE(crew.try_push(jobs.make(11)));
  crew.close();
  EXPECT_TRUE(crew.closed());
  EXPECT_FALSE(crew.try_push(jobs.make(12)));  // refused after close

  jobs.open();
  // Drained: the worker runs both queued jobs, then leaves by itself.
  wait_until([&] { return crew.active() == 0; });
  EXPECT_EQ(crew.active(), 0U);
  EXPECT_EQ(jobs.ran(), (std::vector<int>{10, 11}));
  crew.halt();
}

TEST(WorkerCrew, HaltWakesIdleWorkersAndJoinsThem) {
  WorkerCrew crew(1);
  crew.resize(3);
  EXPECT_EQ(crew.active(), 3U);
  crew.halt();  // returns once all three idle workers woke and were joined
  EXPECT_EQ(crew.active(), 0U);
  EXPECT_TRUE(crew.closed());
  crew.resize(2);  // a halted crew spawns nothing
  EXPECT_EQ(crew.active(), 0U);
}

TEST(WorkerCrew, ConcurrentProducersConsumersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::mutex runs_mutex;
  std::vector<int> runs(kProducers * kPerProducer, 0);
  WorkerCrew crew(8);
  crew.resize(2);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int id = p * kPerProducer + i;
        WorkerCrew::Job job([&runs_mutex, &runs, id] {
          const std::lock_guard lock(runs_mutex);
          ++runs[static_cast<std::size_t>(id)];
        });
        // Spin on backpressure: the test wants every job delivered.
        while (!crew.try_push(std::move(job))) std::this_thread::yield();
      }
    });
  }
  for (std::thread& t : producers) t.join();
  crew.halt();

  // Every job ran exactly once: none lost, none run twice.
  EXPECT_EQ(std::count(runs.begin(), runs.end(), 1),
            kProducers * kPerProducer);
}

TEST(WorkerCrew, ShrinkWithQueuedJobsRunsEachJobOnce) {
  Jobs jobs;
  WorkerCrew crew(64);
  crew.resize(4);
  for (int id = 0; id < 24; ++id) EXPECT_TRUE(crew.try_push(jobs.make(id)));
  wait_until([&] { return jobs.started() == 4; });  // every worker busy
  EXPECT_EQ(crew.size(), 20U);

  crew.resize(1);
  EXPECT_EQ(crew.target(), 1U);
  jobs.open();
  wait_until([&] { return jobs.started() == 24 && crew.active() == 1; });
  EXPECT_EQ(crew.active(), 1U);
  EXPECT_TRUE(crew.try_push(jobs.make(24)));  // the one left still works
  crew.halt();

  std::vector<int> ran = jobs.ran();
  std::sort(ran.begin(), ran.end());
  EXPECT_EQ(ran, ids(25));
}

TEST(WorkerCrew, ShrinkWhileEveryWorkerIsBusyLetsTheirJobsFinish) {
  Jobs jobs;
  WorkerCrew crew(8);
  crew.resize(3);
  std::vector<std::future<void>> done;
  for (int id = 0; id < 3; ++id) {
    WorkerCrew::Job job = jobs.make(id);
    done.push_back(job.get_future());
    EXPECT_TRUE(crew.try_push(std::move(job)));
  }
  wait_until([&] { return jobs.started() == 3; });

  crew.resize(1);
  EXPECT_EQ(crew.active(), 3U);  // no worker leaves in the middle of a job
  jobs.open();
  for (std::future<void>& f : done) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(15)),
              std::future_status::ready);
  }
  wait_until([&] { return crew.active() == 1; });
  EXPECT_EQ(crew.active(), 1U);
  crew.halt();
  for (std::future<void>& f : done) EXPECT_NO_THROW(f.get());
}

TEST(WorkerCrew, ShrinkThenGrowSettlesAtTheGrowTarget) {
  Jobs jobs;
  jobs.open();
  WorkerCrew crew(64);
  crew.resize(4);
  std::vector<std::future<void>> done;
  for (int round = 0; round < 20; ++round) {
    crew.resize(1);
    crew.resize(4);
    // Workers still on their way out of the shrink stay on instead.
    EXPECT_EQ(crew.active(), 4U);
    for (int i = 0; i < 3; ++i) {
      WorkerCrew::Job job = jobs.make(round * 3 + i);
      done.push_back(job.get_future());
      EXPECT_TRUE(crew.try_push(std::move(job)));
    }
  }
  for (std::future<void>& f : done) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(15)),
              std::future_status::ready);
  }
  EXPECT_EQ(crew.target(), 4U);
  EXPECT_EQ(crew.active(), 4U);
  crew.halt();

  std::vector<int> ran = jobs.ran();
  std::sort(ran.begin(), ran.end());
  EXPECT_EQ(ran, ids(60));
}

}  // namespace
}  // namespace eus::serve
