#include "svc/clip_service.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "parallel/timing.hpp"

namespace psclip::svc {

ClipService::ClipService(par::ThreadPool& pool, ServiceOptions opts)
    : pool_(pool),
      opts_(opts),
      gate_(opts.max_in_flight != 0
                ? opts.max_in_flight
                : static_cast<unsigned>(2 * std::max<std::size_t>(
                                                1, pool.size())),
            opts.max_queued) {
  if (opts_.enable_cache) {
    PreparedCacheConfig cfg = opts_.cache;
    if (!cfg.sink) cfg.sink = opts_.trace_sink;
    cache_ = std::make_unique<PreparedCache>(std::move(cfg));
  }
}

ClipService::~ClipService() {
  {
    std::lock_guard lk(qmu_);
    stop_ = true;
  }
  qcv_.notify_all();
  for (std::thread& t : dispatchers_) t.join();
  // Requests still queued never ran: fail their futures precisely rather
  // than dropping the promises (which would surface as broken_promise).
  for (Job& j : jobs_)
    j.promise.set_exception(std::make_exception_ptr(
        Error(ErrorCode::kCancelled, "ClipService destroyed")));
}

ClipResult ClipService::run_one(const ClipRequest& req,
                                seq::PreparedSource* cache_override) {
  obs::TraceSink* const sink =
      req.trace_sink ? req.trace_sink : opts_.trace_sink;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (sink) sink->add_counter("svc.requests", 1);
  par::PhaseClock queue(sink, "svc.queue");
  try {
    gate_.acquire(req.cancel);
  } catch (const Error& e) {
    if (e.code() == ErrorCode::kResource) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      if (sink) sink->add_counter("svc.rejected", 1);
    }
    throw;
  }
  const double queued = queue.stop().wall;
  if (sink) sink->observe("svc.queue_seconds", queued);
  try {
    ClipResult res = execute(req, cache_override ? cache_override
                                                 : cache_.get());
    res.queue_seconds = queued;
    gate_.release();
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (sink) sink->add_counter("svc.completed", 1);
    return res;
  } catch (...) {
    gate_.release();
    failed_.fetch_add(1, std::memory_order_relaxed);
    if (sink) sink->add_counter("svc.failed", 1);
    throw;
  }
}

ClipResult ClipService::execute(const ClipRequest& req,
                                seq::PreparedSource* prep_src) {
  obs::TraceSink* const sink =
      req.trace_sink ? req.trace_sink : opts_.trace_sink;
  par::PhaseClock run(sink, "svc.request", obs::Cat::kRequest);
  run.span().arg("vertices", static_cast<std::int64_t>(
                                 req.subject.num_vertices() +
                                 req.clip.num_vertices()));
  ClipResult res;
  // The identity guarantee rests on this being literally the facade:
  // same engine resolution, same pool, same options.
  ClipOptions copts;
  copts.engine = req.multiset ? Engine::kSlab : req.engine;
  copts.cancel = req.cancel;
  copts.allow_partial = req.allow_partial;
  copts.partial = &res.partial;
  copts.pool = &pool_;
  copts.trace_sink = sink;
  copts.prepared_cache = prep_src;
  res.output = psclip::clip(req.subject, req.clip, req.op, copts);
  res.run_seconds = run.stop().wall;
  if (sink) sink->observe("svc.request_seconds", res.run_seconds);
  return res;
}

ClipResult ClipService::submit(const ClipRequest& req) {
  return run_one(req, nullptr);
}

std::future<ClipResult> ClipService::submit_async(ClipRequest req) {
  ensure_dispatchers();
  Job job;
  job.req = std::move(req);
  std::future<ClipResult> fut = job.promise.get_future();
  {
    std::lock_guard lk(qmu_);
    if (stop_)
      throw Error(ErrorCode::kCancelled, "ClipService destroyed");
    // The dispatch queue shares the admission bound: when no execution
    // capacity remains AND the queue already holds max_queued jobs the
    // service is saturated past its waiting line, so reject synchronously —
    // the same backpressure contract as the gate, surfaced before any copy
    // sits in a queue. (The capacity clause keeps max_queued = 0 usable:
    // an idle service still admits, it just refuses to build a backlog.)
    const bool capacity_left =
        gate_.in_flight() + jobs_.size() < gate_.limit();
    if (!capacity_left && jobs_.size() >= opts_.max_queued) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      if (opts_.trace_sink) opts_.trace_sink->add_counter("svc.rejected", 1);
      throw Error(ErrorCode::kResource,
                  "async dispatch queue full (" +
                      std::to_string(jobs_.size()) + " queued)");
    }
    jobs_.push_back(std::move(job));
  }
  qcv_.notify_one();
  return fut;
}

std::vector<ClipResult> ClipService::submit_batch(
    const std::vector<ClipRequest>& reqs) {
  if (reqs.empty()) return {};
  obs::TraceSink* const sink = opts_.trace_sink;
  obs::ScopedSpan span(sink, "svc.batch", obs::Cat::kRequest);
  span.arg("requests", static_cast<std::int64_t>(reqs.size()));
  // One admission slot covers the whole batch: the batch is one caller's
  // unit of work, and admitting each pair separately could deadlock a
  // full service against itself.
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (sink) sink->add_counter("svc.requests", 1);
  gate_.acquire(reqs.front().cancel);
  // Shared prepare pass: the service cache if on, else a batch-local one,
  // so repeated contours (the common shared clip layer) are prepared once
  // per batch no matter what.
  std::optional<PreparedCache> local;
  seq::PreparedSource* prep_src = cache_.get();
  if (!prep_src) prep_src = &local.emplace();
  try {
    std::vector<ClipResult> out;
    out.reserve(reqs.size());
    for (const ClipRequest& r : reqs) out.push_back(execute(r, prep_src));
    gate_.release();
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (sink) sink->add_counter("svc.completed", 1);
    return out;
  } catch (...) {
    gate_.release();
    failed_.fetch_add(1, std::memory_order_relaxed);
    if (sink) sink->add_counter("svc.failed", 1);
    throw;
  }
}

void ClipService::ensure_dispatchers() {
  std::lock_guard lk(qmu_);
  if (!dispatchers_.empty() || stop_) return;
  const unsigned n =
      opts_.async_workers != 0 ? opts_.async_workers : gate_.limit();
  dispatchers_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
}

void ClipService::dispatcher_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock lk(qmu_);
      qcv_.wait(lk, [this] { return stop_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stop_ and drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    try {
      job.promise.set_value(run_one(job.req, nullptr));
    } catch (...) {
      job.promise.set_exception(std::current_exception());
    }
  }
}

}  // namespace psclip::svc
