// Unit + race coverage for the governance primitives (parallel/cancel.hpp).
//
// The single-thread half pins down the exact semantics every layer above
// relies on: null tokens are free, checkpoint() amortizes only the clock
// read (cancel and budget flags trip immediately), budgets release on
// unwind, transient probes never stick, charge watermarks are quantized.
//
// The racing half is the TSan target for this subsystem: cancellation is
// delivered from a foreign thread while workers run parallel_for chunks and
// the caller is blocked waiting for them. The assertions are
// about *delivery* (the precise error code surfaces, the pool stays
// reusable); TSan supplies the data-race verdict on the token state shared
// across submitter, workers, and canceller.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "error.hpp"
#include "parallel/cancel.hpp"
#include "parallel/thread_pool.hpp"

namespace psclip::par {
namespace {

TEST(Deadline, UnarmedNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.armed());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_ms(), 0);
}

TEST(Deadline, SignOfRemaining) {
  EXPECT_TRUE(Deadline::in_ms(-5).expired());
  EXPECT_LE(Deadline::in_ms(-5).remaining_ms(), 0);
  const Deadline far = Deadline::in_ms(60 * 1000);
  EXPECT_FALSE(far.expired());
  EXPECT_GT(far.remaining_ms(), 0);
}

TEST(ResourceBudget, ChargeReleasePeak) {
  ResourceBudget b(1000);
  EXPECT_TRUE(b.try_charge(600));
  EXPECT_EQ(b.used(), 600u);
  EXPECT_EQ(b.peak(), 600u);
  b.release(600);
  EXPECT_EQ(b.used(), 0u);
  EXPECT_EQ(b.peak(), 600u) << "peak is a high-water mark";
  EXPECT_FALSE(b.blown());
}

TEST(ResourceBudget, OverchargeIsStickyAndNotRecorded) {
  ResourceBudget b(1000);
  EXPECT_TRUE(b.try_charge(900));
  EXPECT_FALSE(b.try_charge(200));
  EXPECT_TRUE(b.blown());
  EXPECT_EQ(b.used(), 900u) << "the failed charge must not be retained";
  b.reset();
  EXPECT_FALSE(b.blown());
  EXPECT_EQ(b.used(), 0u);
  EXPECT_EQ(b.peak(), 0u);
}

TEST(ResourceBudget, TransientProbeNeverSticks) {
  ResourceBudget b(1000);
  EXPECT_FALSE(b.charge_transient(5000));
  EXPECT_FALSE(b.blown()) << "a released spike must not poison the request";
  EXPECT_EQ(b.used(), 0u);
  EXPECT_TRUE(b.try_charge(500));
  EXPECT_TRUE(b.charge_transient(400));
  EXPECT_EQ(b.peak(), 900u) << "a fitting spike still records peak";
  EXPECT_EQ(b.used(), 500u);
}

TEST(ResourceBudget, UnlimitedStillTracksPeak) {
  ResourceBudget b;  // limit 0 = unlimited
  EXPECT_TRUE(b.try_charge(1ull << 40));
  EXPECT_EQ(b.peak(), 1ull << 40);
  EXPECT_FALSE(b.blown());
  b.release(1ull << 40);
}

TEST(CancelToken, NullTokenIsInert) {
  CancelToken t;
  EXPECT_FALSE(t.valid());
  t.cancel();  // no-op, no crash
  EXPECT_FALSE(t.stopped());
  t.rethrow_if_stopped();
  gov::checkpoint();      // nothing installed
  gov::checkpoint_now();  // ditto
  EXPECT_EQ(gov::current_budget(), nullptr);
}

TEST(CancelToken, CopiesShareState) {
  CancelToken a = CancelToken::make();
  CancelToken b = a;
  b.cancel();
  EXPECT_TRUE(a.stopped());
  EXPECT_TRUE(a.cancel_requested());
}

TEST(CancelToken, RethrowPrecedence) {
  // Cancel outranks budget outranks deadline, so concurrent trips report a
  // deterministic code.
  CancelToken t = CancelToken::with_deadline(Deadline::in_ms(-1));
  auto blown = std::make_shared<ResourceBudget>(1);
  EXPECT_FALSE(blown->try_charge(2));
  t.set_budget(blown);
  try {
    t.rethrow_if_stopped();
    FAIL() << "tripped token did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBudgetExceeded);
  }
  t.cancel();
  try {
    t.rethrow_if_stopped();
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
  }
}

TEST(Checkpoint, CancelTripsWithoutClockStride) {
  CancelToken t = CancelToken::make();
  gov::ScopedToken scope(t);
  gov::checkpoint();  // fine
  t.cancel();
  EXPECT_THROW(gov::checkpoint(), Error)
      << "cancel is checked every checkpoint, not 1-in-kStride";
}

TEST(Checkpoint, DeadlineTripsWithinOneStride) {
  CancelToken t = CancelToken::with_deadline(Deadline::in_ms(-1));
  gov::ScopedToken scope(t);
  EXPECT_THROW(gov::checkpoint_now(), Error);
  bool threw = false;
  // The thread-local tick survives across tests, so allow two full strides.
  for (std::uint32_t i = 0; i < 2 * 32 && !threw; ++i) {
    try {
      gov::checkpoint();
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
}

TEST(Checkpoint, ScopedTokenNestsAndRestores) {
  EXPECT_EQ(gov::current_state(), nullptr);
  CancelToken outer = CancelToken::make();
  auto outer_budget = std::make_shared<ResourceBudget>(100);
  outer.set_budget(outer_budget);
  {
    gov::ScopedToken s1(outer);
    EXPECT_EQ(gov::current_budget(), outer_budget.get());
    CancelToken inner = CancelToken::make();
    {
      gov::ScopedToken s2(inner);
      EXPECT_EQ(gov::current_state(), inner.state());
      EXPECT_EQ(gov::current_budget(), nullptr);
    }
    EXPECT_EQ(gov::current_state(), outer.state());
  }
  EXPECT_EQ(gov::current_state(), nullptr);
}

TEST(ScopedCharge, WatermarkIsQuantizedAndReleased) {
  CancelToken t = CancelToken::make();
  auto budget = std::make_shared<ResourceBudget>(1ull << 30);
  t.set_budget(budget);
  gov::ScopedToken scope(t);
  {
    gov::ScopedCharge c;
    c.raise_to(1);
    EXPECT_EQ(c.held(), gov::ScopedCharge::kGranule);
    c.raise_to(gov::ScopedCharge::kGranule);  // within the held watermark
    EXPECT_EQ(c.held(), gov::ScopedCharge::kGranule);
    c.raise_to(gov::ScopedCharge::kGranule + 1);
    EXPECT_EQ(c.held(), 2 * gov::ScopedCharge::kGranule);
    EXPECT_EQ(budget->used(), c.held());
  }
  EXPECT_EQ(budget->used(), 0u);
  EXPECT_EQ(budget->peak(), 2 * gov::ScopedCharge::kGranule);
}

TEST(ScopedCharge, ReleasesOnUnwind) {
  CancelToken t = CancelToken::make();
  auto budget = std::make_shared<ResourceBudget>(1000);
  t.set_budget(budget);
  gov::ScopedToken scope(t);
  try {
    gov::ScopedCharge c(512);
    gov::ScopedCharge doomed(1024);  // over limit
    FAIL() << "overcharge did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBudgetExceeded);
  }
  EXPECT_EQ(budget->used(), 0u) << "both charges must unwind";
  EXPECT_TRUE(budget->blown());
}

// ---- Races: foreign-thread cancellation vs. the pool. ----

TEST(CancelRace, ParallelForThrowsPreciseCodeAndPoolSurvives) {
  ThreadPool pool(4);
  CancelToken t = CancelToken::make();
  std::atomic<bool> started{false};
  std::thread canceller([&] {
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
    t.cancel();
  });
  try {
    gov::ScopedToken scope(t);
    pool.parallel_for(100000, [&](std::size_t) {
      started.store(true, std::memory_order_release);
      // Spin until the foreign cancel lands, then checkpoint: at least one
      // running chunk is guaranteed to observe the flag.
      while (!t.cancel_requested()) std::this_thread::yield();
      gov::checkpoint();
    });
    FAIL() << "cancelled parallel_for returned normally";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled)
        << "aggregation must preserve the precise governance code";
  }
  canceller.join();
  // The pool must be fully reusable after a cancelled region (the dead
  // token is no longer installed here).
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(1000,
                    [&](std::size_t i) {
                      sum.fetch_add(i, std::memory_order_relaxed);
                    },
                    16);
  EXPECT_EQ(sum.load(), 1000u * 999u / 2);
}

TEST(CancelRace, WaitingParallelForCallerThrowsCancelled) {
  // Workers' chunks spin until a foreign cancel lands. The caller's chunks
  // return as soon as one worker chunk has started, so the caller runs out
  // of indices and blocks waiting for the workers. The waiting caller must
  // surface kCancelled.
  ThreadPool pool(4);
  CancelToken t = CancelToken::make();
  std::atomic<bool> started{false};
  std::thread canceller([&] {
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    t.cancel();
  });
  {
    gov::ScopedToken scope(t);
    try {
      pool.parallel_for(
          64,
          [&](std::size_t) {
            if (pool.current_worker() == -1) {
              while (!started.load(std::memory_order_acquire))
                std::this_thread::yield();
              return;
            }
            started.store(true, std::memory_order_release);
            while (!t.cancel_requested()) std::this_thread::yield();
            gov::checkpoint();
          },
          /*grain=*/1);
      FAIL() << "cancelled parallel_for returned normally";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCancelled);
    }
  }
  canceller.join();
  // The same pool still runs a fresh region to completion.
  std::atomic<int> ran{0};
  pool.parallel_for(32, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 32);
}

TEST(CancelRace, HelperChunksInheritTheSubmitterToken) {
  // Chunks observe the token through the captured state even when executed
  // by a worker that never installed it.
  ThreadPool pool(4);
  CancelToken t = CancelToken::make();
  std::atomic<int> governed{0};
  {
    gov::ScopedToken scope(t);
    pool.parallel_for(
        128,
        [&](std::size_t) {
          if (gov::current_state() == t.state())
            governed.fetch_add(1, std::memory_order_relaxed);
        },
        /*grain=*/1);
  }
  EXPECT_EQ(governed.load(), 128)
      << "every chunk must run with the submitter's token installed";
}

TEST(CancelRace, FailedSpikeNeverBlowsConcurrentCharges) {
  // A spike that does not fit is never retained, so a charge racing it on
  // another thread must neither fail nor stick the blown flag.
  ResourceBudget b(1 << 20);
  std::atomic<bool> started{false}, stop{false};
  std::thread hog([&] {
    started.store(true);
    while (!stop.load(std::memory_order_relaxed))
      (void)b.charge_transient(1ull << 30);
  });
  while (!started.load()) std::this_thread::yield();
  int failed = 0;
  for (int i = 0; i < 200000; ++i) {
    if (b.try_charge(4096))
      b.release(4096);
    else
      ++failed;
  }
  stop.store(true);
  hog.join();
  EXPECT_EQ(failed, 0);
  EXPECT_FALSE(b.blown());
  EXPECT_EQ(b.used(), 0u);
}

TEST(CancelRace, ConcurrentChargesBalance) {
  ThreadPool pool(4);
  CancelToken t = CancelToken::make();
  auto budget = std::make_shared<ResourceBudget>(1ull << 30);
  t.set_budget(budget);
  gov::ScopedToken scope(t);
  pool.parallel_for(
      2000,
      [&](std::size_t) {
        gov::ScopedCharge c(4096);
        (void)budget->charge_transient(64 * 1024);
        gov::checkpoint();
      },
      8);
  EXPECT_EQ(budget->used(), 0u);
  EXPECT_FALSE(budget->blown());
  EXPECT_GE(budget->peak(), 4096u + 64u * 1024u);
  EXPECT_LE(budget->peak(), budget->limit());
}

}  // namespace
}  // namespace psclip::par
