#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "error.hpp"
#include "parallel/timing.hpp"

namespace psclip::par {
namespace {

using Clock = std::chrono::steady_clock;

/// Yield until `ready()` holds or `limit` passes; returns ready().
template <typename Pred>
bool wait_until(Pred ready, std::chrono::milliseconds limit) {
  const auto until = Clock::now() + limit;
  while (!ready() && Clock::now() < until) std::this_thread::yield();
  return ready();
}

/// Spin until this thread has burned `seconds` of CPU.
void burn_cpu(double seconds) {
  const ThreadCpuTimer t;
  while (t.seconds() < seconds) {
  }
}

TEST(ThreadPool, SizeDefaultsToAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
  ThreadPool four(4);
  EXPECT_EQ(four.size(), 4u);
}

TEST(ThreadPool, ParallelForVisitsEachIndexExactlyOnce) {
  ThreadPool pool(4);
  for (std::size_t n : {0u, 1u, 7u, 100u, 4096u, 100001u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
  }
}

TEST(ThreadPool, ParallelForHonorsGrain) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  pool.parallel_for(
      1000, [&](std::size_t i) { sum += static_cast<long>(i); },
      /*grain=*/64);
  EXPECT_EQ(sum.load(), 999L * 1000 / 2);
}

TEST(ThreadPool, ParallelBlocksPartitionContiguously) {
  ThreadPool pool(4);
  const std::size_t n = 1003;
  std::vector<int> owner(n, -1);
  std::atomic<int> blocks_seen{0};
  pool.parallel_blocks(n, [&](unsigned block, std::size_t b, std::size_t e) {
    ++blocks_seen;
    ASSERT_LT(b, e);
    for (std::size_t i = b; i < e; ++i) owner[i] = static_cast<int>(block);
  });
  // Every element covered, and block ids non-decreasing over the range.
  for (std::size_t i = 0; i < n; ++i) ASSERT_GE(owner[i], 0);
  for (std::size_t i = 1; i < n; ++i) ASSERT_GE(owner[i], owner[i - 1]);
  EXPECT_LE(blocks_seen.load(), 4);
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(1000,
                        [&](std::size_t i) {
                          if (i == 437) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForSingleFailureRethrownUnchanged) {
  ThreadPool pool(4);
  // Exactly one index throws: the original exception must come back as-is,
  // not wrapped in the aggregation error.
  try {
    pool.parallel_for(
        1000,
        [&](std::size_t i) {
          if (i == 437) throw std::runtime_error("boom 437");
        },
        /*grain=*/64);
    FAIL() << "parallel_for must rethrow";
  } catch (const Error&) {
    FAIL() << "single failure must not be wrapped";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 437");
  }
}

TEST(ThreadPool, ParallelForAggregatesConcurrentFailures) {
  ThreadPool pool(4);
  // Every index throws, tiny grain: with 4 drivers racing over 1000
  // chunks, more than one driver fails essentially always. The contract:
  // N>1 concurrent failures fold into one psclip::Error(kTaskFailure)
  // carrying the count and the first message; a single failure comes back
  // unchanged (legal here, just unlikely).
  std::atomic<int> threw{0};
  try {
    pool.parallel_for(
        1000,
        [&](std::size_t i) {
          threw.fetch_add(1, std::memory_order_relaxed);
          throw std::runtime_error("item " + std::to_string(i));
        },
        /*grain=*/1);
    FAIL() << "parallel_for must rethrow";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTaskFailure);
    EXPECT_NE(std::string(e.what()).find("tasks failed; first: item "),
              std::string::npos)
        << e.what();
    EXPECT_GE(threw.load(), 2);
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(threw.load(), 1) << e.what();
  }
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i) pool.submit([&done] { ++done; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  long sum = 0;  // no synchronization needed: must run on calling thread
  pool.parallel_for(100, [&](std::size_t i) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnceUnderContention) {
  // Grain 1 and more workers than cores: every claim races on the shared
  // index.
  ThreadPool pool(8);
  const std::size_t n = 5000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(
      n, [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
      /*grain=*/1);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForReturnsWhileEveryWorkerIsBusy) {
  // Both workers are parked, so the helper ticket parallel_for queues
  // cannot start. The caller drives every chunk itself and must return
  // without waiting for that ticket; the watchdog only bounds a failure.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> parked{0}, timed_out{0};
  for (unsigned w = 0; w < pool.size(); ++w)
    pool.submit([&] {
      parked.fetch_add(1);
      if (!wait_until([&] { return release.load(); }, std::chrono::seconds(2)))
        timed_out.fetch_add(1);
    });
  ASSERT_TRUE(wait_until([&] { return parked.load() == 2; },
                         std::chrono::seconds(5)));
  std::atomic<int> on_caller{0};
  {
    const std::function<void(std::size_t)> body = [&](std::size_t) {
      if (pool.current_worker() == -1) on_caller.fetch_add(1);
    };
    pool.parallel_for(8, body, /*grain=*/1);
  }
  EXPECT_EQ(timed_out.load(), 0) << "parallel_for waited for the watchdog";
  EXPECT_EQ(on_caller.load(), 8);
  release.store(true);
  pool.wait_idle();  // the late ticket runs now and claims nothing
}

TEST(ThreadPool, ParallelForInsideEveryWorkerCompletes) {
  // Every worker is inside a parallel_for at once, so no worker is free to
  // pick up another call's helper ticket. Each caller must still finish by
  // driving its own chunks.
  ThreadPool pool(2);
  std::atomic<int> entered{0};
  std::atomic<int> total{0};
  for (unsigned w = 0; w < pool.size(); ++w)
    pool.submit([&] {
      entered.fetch_add(1);
      wait_until([&] { return entered.load() == 2; }, std::chrono::seconds(2));
      pool.parallel_for(64, [&](std::size_t) { total.fetch_add(1); });
    });
  pool.wait_idle();
  EXPECT_EQ(total.load(), 128);
}

TEST(ThreadPool, ConcurrentCallersShareOnePool) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t)
    callers.emplace_back([&] {
      pool.parallel_for(200, [&](std::size_t) {
        done.fetch_add(1, std::memory_order_relaxed);
      });
    });
  for (auto& c : callers) c.join();
  EXPECT_EQ(done.load(), 4 * 200);
}

TEST(ThreadPool, SubmitMixesWithParallelFor) {
  // Fire-and-forget tasks and parallel_for tickets share the one FIFO;
  // running both at once must lose neither.
  ThreadPool pool(4);
  std::atomic<int> submitted_done{0};
  std::atomic<int> for_done{0};
  for (int i = 0; i < 128; ++i)
    pool.submit([&submitted_done] {
      submitted_done.fetch_add(1, std::memory_order_relaxed);
    });
  pool.parallel_for(1000, [&for_done](std::size_t) {
    for_done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(for_done.load(), 1000);
  pool.wait_idle();
  EXPECT_EQ(submitted_done.load(), 128);
}

TEST(ThreadPool, CurrentWorkerIdentifiesPoolThreads) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.current_worker(), -1);  // the test thread is external
  std::atomic<int> bad{0};
  pool.parallel_for(128, [&](std::size_t) {
    // Chunks run on pool workers or on the (external) caller.
    const int w = pool.current_worker();
    if (w < -1 || w >= static_cast<int>(pool.size())) ++bad;
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(ThreadPool, StealStatsCountTasksAndReset) {
  ThreadPool pool(2);
  // wait_idle parks the caller, so every task is run by a pool worker.
  for (int i = 0; i < 64; ++i) pool.submit([] {});
  pool.wait_idle();
  std::uint64_t run = 0;
  for (const auto& s : pool.steal_stats()) run += s.tasks_run;
  EXPECT_EQ(run, 64u);
  pool.reset_steal_stats();
  for (const auto& s : pool.steal_stats()) {
    EXPECT_EQ(s.tasks_run, 0u);
    EXPECT_EQ(s.idle_seconds, 0.0);
  }
}

TEST(ThreadPool, DefaultPoolIsSingleton) {
  ThreadPool& a = default_pool();
  ThreadPool& b = default_pool();
  EXPECT_EQ(&a, &b);
  std::atomic<int> n{0};
  a.parallel_for(10, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 10);
}

// A metered caller's loop charges the chunks other threads ran for it —
// here exactly the helper's body — and not the caller's own chunks.
TEST(CpuMeter, ChargesHelperChunksOnly) {
  ThreadPool pool(2);
  CpuMeter meter;
  const auto caller = std::this_thread::get_id();
  std::atomic<int> arrived{0};
  std::vector<double> cpu(2, 0.0);
  std::vector<char> on_caller(2, 0);
  {
    ScopedCpuMeter scope(meter);
    pool.parallel_for(
        2,
        [&](std::size_t i) {
          const ThreadCpuTimer own;
          // Both bodies wait for each other, so one runs on a helper.
          arrived.fetch_add(1);
          wait_until([&] { return arrived.load() == 2; },
                     std::chrono::seconds(10));
          burn_cpu(0.02);
          on_caller[i] = std::this_thread::get_id() == caller;
          cpu[i] = own.seconds();
        },
        /*grain=*/1);
  }
  ASSERT_NE(on_caller[0], on_caller[1]);
  const double helper = on_caller[0] ? cpu[1] : cpu[0];
  EXPECT_GE(meter.seconds(), 0.02);
  EXPECT_NEAR(meter.seconds(), helper, 1e-3);
}

// A loop nested on a helper charges the metered caller's meter once: the
// helper's chunk covers the nested chunks it runs itself, and a nested
// chunk another thread runs is charged on its own. A child meter forwards
// every charge to its parent. Which thread claims which chunk is up to the
// scheduler — under load both outer chunks can land on helpers, or both
// nested chunks on threads other than their loop's submitter — so the
// expected charge is summed from what each chunk saw, not assumed.
TEST(CpuMeter, NestedLoopOnHelperChargedOnce) {
  ThreadPool pool(3);
  CpuMeter phase;
  CpuMeter step(&phase);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> outer_arrived{0};
  std::mutex mu;
  double want = 0.0;       // every chunk CPU the meter must hold
  double off_thread = 0.0;  // nested chunks run off their submitter
  {
    ScopedCpuMeter scope(step);
    pool.parallel_for(
        2,
        [&](std::size_t) {
          const ThreadCpuTimer own;
          outer_arrived.fetch_add(1);
          wait_until([&] { return outer_arrived.load() == 2; },
                     std::chrono::seconds(10));
          const auto submitter = std::this_thread::get_id();
          if (submitter == caller) return burn_cpu(0.02);
          std::atomic<int> inner_arrived{0};
          pool.parallel_for(
              2,
              [&](std::size_t) {
                const ThreadCpuTimer leaf;
                inner_arrived.fetch_add(1);
                wait_until([&] { return inner_arrived.load() == 2; },
                           std::chrono::seconds(10));
                burn_cpu(0.02);
                if (std::this_thread::get_id() == submitter) return;
                const double cpu = leaf.seconds();
                const std::lock_guard lk(mu);
                want += cpu;
                off_thread += cpu;
              },
              /*grain=*/1);
          const double cpu = own.seconds();
          const std::lock_guard lk(mu);
          want += cpu;
        },
        /*grain=*/1);
  }
  ASSERT_GE(off_thread, 0.02);  // a nested chunk ran on a third thread
  EXPECT_NEAR(step.seconds(), want, 1e-3);
  EXPECT_EQ(phase.seconds(), step.seconds());
}

}  // namespace
}  // namespace psclip::par
