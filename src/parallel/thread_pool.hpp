#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace psclip::par {

/// Snapshot of one worker's scheduler counters (see
/// ThreadPool::steal_stats). Counters accumulate from pool construction or
/// the last reset_steal_stats(); callers interested in one parallel region
/// diff two snapshots.
struct StealStats {
  std::uint64_t tasks_run = 0;  ///< queued tasks this worker executed
  double idle_seconds = 0.0;    ///< time spent parked waiting for work
};

/// Thread-CPU time that pool helpers spent on parallel_for chunks of a
/// metered caller (see ScopedCpuMeter). A phase that fans out on the pool
/// reads its own thread's CPU clock plus this meter, so work run on other
/// threads — nested loops included — is charged exactly once. A child
/// meter forwards every charge to its parent, so a step's meter can sit
/// inside a whole-phase meter.
class CpuMeter {
 public:
  explicit CpuMeter(CpuMeter* parent = nullptr) : parent_(parent) {}
  CpuMeter(const CpuMeter&) = delete;
  CpuMeter& operator=(const CpuMeter&) = delete;

  void add_ns(std::int64_t ns) {
    for (CpuMeter* m = this; m; m = m->parent_)
      m->ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  /// CPU seconds charged so far. Complete once the metered loops returned.
  [[nodiscard]] double seconds() const {
    return static_cast<double>(ns_.load(std::memory_order_relaxed)) * 1e-9;
  }

 private:
  CpuMeter* const parent_;
  std::atomic<std::int64_t> ns_{0};
};

/// The calling thread's CPU meter (see ScopedCpuMeter), or null.
[[nodiscard]] CpuMeter* current_cpu_meter();

/// Makes `meter` the calling thread's CPU meter for the scope: every
/// parallel_for this thread calls charges the chunks other threads run for
/// it to `meter`, and those threads pass the meter on to loops they nest.
/// The calling thread's own chunks are not charged (its own CPU clock
/// covers them). Restores the previous meter on exit.
class ScopedCpuMeter {
 public:
  explicit ScopedCpuMeter(CpuMeter& meter);
  ~ScopedCpuMeter();
  ScopedCpuMeter(const ScopedCpuMeter&) = delete;
  ScopedCpuMeter& operator=(const ScopedCpuMeter&) = delete;

 private:
  CpuMeter* const prev_;
};

/// Fixed-size worker pool. This is the library's stand-in for the paper's
/// PRAM processor set: "allocate p processors" maps to "run p-way
/// parallel_for on the pool". Workers are started once and reused, so
/// per-call overhead is one lock + wakeup per task batch.
///
/// One central FIFO feeds the workers. parallel_for puts helper tickets on
/// it; each ticket claims chunks from the call's shared index, so a slow
/// item never holds up the rest (greedy dynamic scheduling — what
/// Algorithm 2's slab tasks need against Fig. 11's load imbalance), and a
/// caller only ever runs its own chunks.
class ThreadPool {
 public:
  /// Creates `threads` workers (0 = hardware concurrency).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of workers (>= 1). The calling thread also participates in
  /// parallel_for, so the effective parallelism is size().
  [[nodiscard]] unsigned size() const { return num_threads_; }

  /// Run `body(i)` for every i in [0, n). Work is distributed dynamically
  /// in chunks of `grain` indices, so irregular per-item cost (the norm for
  /// polygon workloads, cf. Fig. 11) still balances. The caller drives
  /// chunks too and blocks until every claimed chunk has finished; helper
  /// tickets that have not started by then claim nothing, so the call
  /// never waits on a busy pool and may be nested inside pool tasks.
  /// Exceptions from `body` propagate to the caller: a single failure is
  /// rethrown unchanged; concurrent failures are all counted and folded
  /// into one psclip::Error (kTaskFailure, count + first message). Chunks
  /// not yet started when a failure lands are skipped.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                    std::size_t grain = 1);

  /// Run `body(begin, end)` over [0, n) split into size()-many nearly equal
  /// contiguous blocks — the static decomposition used where block identity
  /// matters (e.g. the blocked prefix sum). Blocks until done.
  void parallel_blocks(
      std::size_t n,
      const std::function<void(unsigned block, std::size_t begin,
                               std::size_t end)>& body);

  /// Enqueue one fire-and-forget task on the central FIFO (parallel_for
  /// queues its helper tickets here). Caller synchronizes through
  /// wait_idle or its own latch.
  void submit(std::function<void()> task);

  /// Block until the queue is empty and all workers are idle.
  void wait_idle();

  /// Index of the calling thread within this pool: 0..size()-1 for pool
  /// workers, -1 for external threads (including parallel_for callers).
  [[nodiscard]] int current_worker() const;

  /// Per-worker scheduler counters (index = worker id). Counters accumulate
  /// across the pool's lifetime; diff two snapshots to attribute tasks and
  /// idle time to one parallel region.
  [[nodiscard]] std::vector<StealStats> steal_stats() const;

  /// Zero all per-worker scheduler counters. Only meaningful while the pool
  /// is quiescent (counters are relaxed atomics).
  void reset_steal_stats();

 private:
  /// One cache-line-sized bundle of per-worker counters (relaxed atomics:
  /// they are statistics, not synchronization).
  struct WorkerCounters {
    std::atomic<std::uint64_t> tasks_run{0};
    std::atomic<std::uint64_t> idle_ns{0};
  };

  void worker_loop(unsigned id);

  unsigned num_threads_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::unique_ptr<WorkerCounters>> counters_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

/// Process-wide default pool (lazily constructed with hardware
/// concurrency). Most library entry points take an explicit thread count
/// and build their own decomposition; the default pool serves primitives
/// that want parallelism without plumbing a pool through every call.
ThreadPool& default_pool();

}  // namespace psclip::par
