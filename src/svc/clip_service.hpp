#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "psclip.hpp"
#include "parallel/admission.hpp"
#include "svc/prepared_cache.hpp"

namespace psclip::svc {

/// Configuration for ClipService.
struct ServiceOptions {
  /// Maximum requests executing concurrently. 0 (default) = 2 × pool size:
  /// enough admitted requests to keep every worker busy while one request
  /// is in a serial phase, few enough that per-request setup state stays
  /// bounded. Requests beyond it wait in FIFO order.
  unsigned max_in_flight = 0;
  /// Maximum requests waiting behind the in-flight limit; one more is
  /// rejected immediately with Error(kResource) — overload surfaces as
  /// backpressure the caller can retry, never as unbounded queueing.
  unsigned max_queued = 64;
  /// Share prepared contours across requests through a PreparedCache
  /// (default on). Off: every request prepares locally, byte-identical.
  bool enable_cache = true;
  /// Cache tuning (byte budget, external ResourceBudget, digest seam).
  /// `cache.sink` defaults to `trace_sink` when left null.
  PreparedCacheConfig cache;
  /// Service-wide trace + metrics sink: per-request svc.request spans,
  /// svc.* counters and latency histograms, cache meters. Null = off.
  obs::TraceSink* trace_sink = nullptr;
  /// Dispatcher threads serving submit_async futures. 0 (default) = match
  /// max_in_flight (every admitted request can have a dispatcher driving
  /// it). Started lazily on the first submit_async.
  unsigned async_workers = 0;
};

/// One clip request. Inputs are copied in by submit_async (the caller may
/// free them immediately) and borrowed by the synchronous submit().
struct ClipRequest {
  geom::PolygonSet subject;
  geom::PolygonSet clip;
  geom::BoolOp op = geom::BoolOp::kIntersection;
  /// Engine selection, resolved by psclip::resolve_engine — identical to
  /// what a direct psclip::clip call on the service's pool would pick.
  Engine engine = Engine::kAuto;
  /// Two sets of polygons (GIS layers): run the facade with Engine::kSlab
  /// whatever `engine` says, so layers of any size clip on the slab engine.
  bool multiset = false;
  /// Per-request governance (deadline / budget / cancellation): checked
  /// while the request waits at admission and propagated to every worker
  /// that touches the request, exactly as psclip::clip does.
  par::CancelToken cancel;
  /// Return completed slabs instead of failing on a governance trip
  /// (ClipResult::partial reports what is missing).
  bool allow_partial = false;
  /// Per-request sink override; null inherits the service's trace_sink.
  obs::TraceSink* trace_sink = nullptr;
};

/// Result of one request.
struct ClipResult {
  geom::PolygonSet output;
  mt::PartialReport partial;
  double queue_seconds = 0.0;  ///< time spent waiting at admission
  double run_seconds = 0.0;    ///< time spent clipping
};

/// Multi-request serving layer over one shared ThreadPool (DESIGN.md §12).
///
/// Concurrency model: a request is admitted through a FIFO AdmissionGate
/// (max_in_flight running, max_queued waiting, reject beyond — kResource),
/// then executes through the exact psclip::clip path a direct caller would
/// run, on the service's pool. Slab tasks of all
/// admitted requests share the pool's one FIFO, but each request's caller
/// drives its own slabs through parallel_for and never runs another
/// request's: a small request finishes on its own thread even while a
/// million-vertex request's slabs keep every worker busy — fair share
/// without a priority scheduler. Each request's CancelToken and trace span
/// propagate to exactly the threads executing its slabs, as the governance
/// layer does for a single call.
///
/// Identity guarantee: every result is byte-identical to a serial
/// psclip::clip call with the same inputs, options and pool — cached or
/// not, under any interleaving. This holds because the service adds no
/// geometry code: engine choice goes through resolve_engine, execution
/// through the library entry points, and the cache only memoizes
/// seq::prepare_contour, a pure per-contour function.
class ClipService {
 public:
  explicit ClipService(par::ThreadPool& pool, ServiceOptions opts = {});
  ~ClipService();

  ClipService(const ClipService&) = delete;
  ClipService& operator=(const ClipService&) = delete;

  /// Synchronous: admit (FIFO, may wait), execute on the caller's thread
  /// (slab tasks still fan out to the pool), return the result. Throws
  /// Error(kResource) when admission overflows, the precise governance
  /// Error when req.cancel trips, and whatever the engines throw.
  ClipResult submit(const ClipRequest& req);

  /// Asynchronous: enqueue for a dispatcher thread and return a future.
  /// Rejects immediately (throws kResource) when the dispatch queue is at
  /// max_queued; every other failure is delivered through the future.
  std::future<ClipResult> submit_async(ClipRequest req);

  /// Batch form: one admission slot, one prepared-contour pass shared by
  /// every pair in the batch. With the service cache on, the shared clip
  /// layer of a many-subjects-one-clip-layer batch is prepared once and
  /// hit by every subsequent pair; with the cache off a batch-local cache
  /// provides the same single-pass sharing for just this call. Results are
  /// positionally matched to `reqs`; the first failure aborts the batch.
  std::vector<ClipResult> submit_batch(const std::vector<ClipRequest>& reqs);

  /// The cross-request cache, or null when enable_cache is off.
  [[nodiscard]] PreparedCache* cache() { return cache_.get(); }
  [[nodiscard]] par::ThreadPool& pool() { return pool_; }

  // Meters.
  [[nodiscard]] std::uint64_t submitted() const { return submitted_.load(); }
  [[nodiscard]] std::uint64_t completed() const { return completed_.load(); }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_.load(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_.load(); }
  [[nodiscard]] unsigned in_flight() const { return gate_.in_flight(); }

 private:
  struct Job {
    ClipRequest req;
    std::promise<ClipResult> promise;
  };

  /// Admission + execution, shared by every submit path. `cache_override`
  /// non-null substitutes the request's prepared source (submit_batch's
  /// batch-local cache).
  ClipResult run_one(const ClipRequest& req,
                     seq::PreparedSource* cache_override);
  ClipResult execute(const ClipRequest& req, seq::PreparedSource* prep_src);
  void ensure_dispatchers();
  void dispatcher_loop();

  par::ThreadPool& pool_;
  ServiceOptions opts_;
  par::AdmissionGate gate_;
  std::unique_ptr<PreparedCache> cache_;

  std::mutex qmu_;
  std::condition_variable qcv_;
  std::deque<Job> jobs_;
  bool stop_ = false;
  std::vector<std::thread> dispatchers_;

  std::atomic<std::uint64_t> submitted_{0}, completed_{0}, rejected_{0},
      failed_{0};
};

}  // namespace psclip::svc
