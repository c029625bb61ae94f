#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "error.hpp"
#include "obs/trace.hpp"
#include "parallel/cancel.hpp"
#include "parallel/timing.hpp"

namespace psclip::par {
namespace {

/// Identity of the calling thread inside its owning pool. A plain pointer
/// comparison keeps multiple pools (tests build many) independent.
thread_local const void* t_pool = nullptr;
thread_local unsigned t_worker = 0;
/// The CPU meter this thread's parallel_for helpers charge (ScopedCpuMeter).
thread_local CpuMeter* t_meter = nullptr;

}  // namespace

CpuMeter* current_cpu_meter() { return t_meter; }

ScopedCpuMeter::ScopedCpuMeter(CpuMeter& meter) : prev_(t_meter) {
  t_meter = &meter;
}

ScopedCpuMeter::~ScopedCpuMeter() { t_meter = prev_; }

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  num_threads_ = threads;
  counters_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    counters_.push_back(std::make_unique<WorkerCounters>());
  // The caller participates in parallel_for, so spawn size()-1 workers for
  // batch work plus enough to serve submit()-style tasks; we keep it simple
  // with size() dedicated workers (idle workers cost nothing measurable).
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

int ThreadPool::current_worker() const {
  return t_pool == this ? static_cast<int>(t_worker) : -1;
}

void ThreadPool::worker_loop(unsigned id) {
  t_pool = this;
  t_worker = id;
  WorkerCounters& ctr = *counters_[id];
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lk(mu_);
      if (queue_.empty() && !stop_) {
        const WallTimer idle;
        cv_task_.wait(lk, [this] { return stop_ || !queue_.empty(); });
        ctr.idle_ns.fetch_add(static_cast<std::uint64_t>(idle.seconds() * 1e9),
                              std::memory_order_relaxed);
      }
      if (queue_.empty()) return;  // stop_ and the queue is drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    ctr.tasks_run.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lk(mu_);
    if (--active_ == 0 && queue_.empty()) cv_idle_.notify_all();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lk(mu_);
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lk(mu_);
  cv_idle_.wait(lk, [this] { return queue_.empty() && active_ == 0; });
}

std::vector<StealStats> ThreadPool::steal_stats() const {
  std::vector<StealStats> out(num_threads_);
  for (unsigned i = 0; i < num_threads_; ++i) {
    const WorkerCounters& c = *counters_[i];
    out[i].tasks_run = c.tasks_run.load(std::memory_order_relaxed);
    out[i].idle_seconds =
        static_cast<double>(c.idle_ns.load(std::memory_order_relaxed)) * 1e-9;
  }
  return out;
}

void ThreadPool::reset_steal_stats() {
  for (auto& c : counters_) {
    c->tasks_run.store(0, std::memory_order_relaxed);
    c->idle_ns.store(0, std::memory_order_relaxed);
  }
}

namespace {

/// State of one parallel_for call, shared by the caller and its helper
/// tickets. It lives on the heap because a ticket may be popped after the
/// call returned: such a ticket claims no index, so it touches only this
/// state and never `body` or anything else the caller owns.
struct ForLoop {
  ForLoop(std::size_t count, std::size_t chunk,
          const std::function<void(std::size_t)>& fn)
      : n(count), grain(chunk), body(fn) {}

  const std::size_t n, grain;
  const std::function<void(std::size_t)>& body;
  /// The submitter's governance token rides into every thread that runs
  /// chunks (pool workers have none of their own) and is re-checked at
  /// each chunk boundary, so a cancel/deadline/budget trip stops the region
  /// even when `body` itself never checkpoints.
  const gov::CapturedToken tok;
  /// The submitter's CPU meter: helper threads charge their chunks to it.
  CpuMeter* const meter = t_meter;
  std::atomic<std::size_t> next{0};
  /// Threads between a claim attempt and the end of its chunk. Raised
  /// before the claim, so once the caller has seen the index run out (or
  /// the error flag set) and this reach zero, no chunk can start.
  std::atomic<unsigned> inflight{0};
  std::atomic<bool> error{false};
  // Failure bookkeeping: the first exception is kept whole, later ones are
  // counted (never silently dropped) and folded into one aggregated
  // psclip::Error when more than one chunk threw.
  std::atomic<std::uint64_t> failures{0};
  std::mutex mu;
  std::exception_ptr eptr;
  std::string first_msg;

  void drive() {
    gov::ScopedState gov_state(tok.state());
    // The submitting thread's own clock covers its chunks; any other thread
    // charges each chunk to the meter before releasing it, while the
    // submitter still waits, and passes the meter on to nested loops.
    const bool charge = meter && t_meter != meter;
    std::optional<ScopedCpuMeter> pass_on;
    if (charge) pass_on.emplace(*meter);
    for (;;) {
      inflight.fetch_add(1);
      const std::size_t begin = next.fetch_add(grain);
      if (begin >= n || error.load()) return release();
      std::optional<ThreadCpuTimer> cpu;
      if (charge) cpu.emplace();
      try {
        gov::checkpoint();
        const std::size_t end = std::min(n, begin + grain);
        for (std::size_t i = begin; i < end; ++i) body(i);
      } catch (...) {
        record_failure();
      }
      if (cpu) meter->add_ns(std::llround(cpu->seconds() * 1e9));
      release();
    }
  }

  void release() {
    if (inflight.fetch_sub(1) == 1) inflight.notify_all();
  }

  void record_failure() {
    failures.fetch_add(1);
    std::lock_guard lk(mu);
    if (error.exchange(true)) return;
    eptr = std::current_exception();
    try {
      std::rethrow_exception(eptr);
    } catch (const std::exception& e) {
      first_msg = e.what();
    } catch (...) {
      first_msg = "unknown exception";
    }
  }
};

}  // namespace

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body,
                              std::size_t grain) {
  if (n == 0) return;
  grain = std::max<std::size_t>(grain, 1);
  if (num_threads_ == 1 || n <= grain) {
    for (std::size_t i = 0; i < n; ++i) {
      gov::checkpoint();
      body(i);
    }
    return;
  }

  // Scheduling span via the process-wide sink (option structs don't reach
  // here); null sink = one relaxed atomic load.
  obs::ScopedSpan sched_span(obs::global_sink(), "pool.parallel_for",
                             obs::Cat::kSchedule);
  sched_span.arg("n", static_cast<std::int64_t>(n));
  sched_span.arg("grain", static_cast<std::int64_t>(grain));

  auto loop = std::make_shared<ForLoop>(n, grain, body);
  const unsigned helpers = std::min<std::size_t>(num_threads_ - 1,
                                                 (n + grain - 1) / grain);
  for (unsigned i = 0; i < helpers; ++i) submit([loop] { loop->drive(); });
  loop->drive();  // caller participates
  // Every index is claimed (or the error flag stops further claims); wait
  // only for chunks still running elsewhere, never for unstarted tickets.
  for (unsigned busy; (busy = loop->inflight.load()) != 0;)
    loop->inflight.wait(busy);

  const std::uint64_t nfail = loop->failures.load();
  // A tripped token outranks the aggregation fold: concurrent failures
  // caused by governance must surface with their precise code, not as an
  // opaque kTaskFailure.
  if (nfail > 0) gov::rethrow_if_stopped(loop->tok.state());
  if (nfail > 1)
    throw Error(ErrorCode::kTaskFailure, std::to_string(nfail) +
                                             " tasks failed; first: " +
                                             loop->first_msg);
  // Move the exception out: a late ticket may release `loop` on a worker,
  // which must not drop the last reference to an exception the caller is
  // still handling.
  if (nfail == 1) std::rethrow_exception(std::exchange(loop->eptr, nullptr));
}

void ThreadPool::parallel_blocks(
    std::size_t n, const std::function<void(unsigned, std::size_t,
                                            std::size_t)>& body) {
  if (n == 0) return;
  const unsigned blocks =
      static_cast<unsigned>(std::min<std::size_t>(num_threads_, n));
  const std::size_t chunk = (n + blocks - 1) / blocks;
  parallel_for(
      blocks,
      [&](std::size_t b) {
        const std::size_t begin = b * chunk;
        const std::size_t end = std::min(n, begin + chunk);
        if (begin < end) body(static_cast<unsigned>(b), begin, end);
      },
      /*grain=*/1);
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace psclip::par
