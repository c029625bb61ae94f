#pragma once

// Failure and governance policy of the Algorithm 2 engine (slab_clip).
// Internal to psclip_mt: not part of the public API and not included by
// psclip.hpp.
//
// The engine owns its decomposition and the body of one slab attempt;
// SlabRun owns everything around it — the request scope (stats reset,
// governance token, request span), scheduling slab tasks on the pool,
// the per-slab degradation ladder with its governance gate, recovery of
// slabs a task fault lost, settling exhausted slabs (partial result,
// precise governance error, or whole-input recompute), and the request-end
// counters and Alg2Stats fill (DESIGN.md §7, §11).

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "geom/bool_op.hpp"
#include "geom/polygon.hpp"
#include "mt/algorithm2.hpp"
#include "mt/stats.hpp"
#include "obs/trace.hpp"
#include "parallel/cancel.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/timing.hpp"
#include "seq/bounds.hpp"

namespace psclip::mt {

/// Outcome of one slab task, index-aligned with the engine's decomposition.
struct SlabOut {
  geom::PolygonSet result;
  SlabLoad load;
  DegradationReport report;
  double partition_seconds = 0.0;  ///< wall time of the partition step
  double partition_cpu = 0.0;      ///< thread CPU time of the partition step
  int worker = -1;  ///< pool worker that executed the slab (-1 = caller)
  bool done = false;       ///< slab task body ran (vs. lost to a task fault)
  bool exhausted = false;  ///< every per-slab ladder rung failed
};

/// Globally prepared contour fragments of one input (the engine's
/// setup). Two ownership modes behind one pointer view: without a
/// cache the fragments live in `own`; with a prepared_cache they are shared
/// immutable fragments held alive for the run by `held`. Slab tasks read
/// only `prep` (null = degenerate contour), so they cannot tell the modes
/// apart — the basis of the cache's byte-identity.
struct PreparedInput {
  std::vector<const seq::PreparedContour*> prep;
  std::vector<seq::PreparedContour> own;
  std::vector<std::shared_ptr<const seq::PreparedContour>> held;
};

/// Where prepare_inputs reads contour i of one input.
using ContourAt = std::function<const geom::Contour&(std::size_t)>;

/// Prepare subject contours `sub_at(0..nsub-1)` into `sub` and clip
/// contours `clip_at(0..nclip-1)` into `clip` on the pool in one pass,
/// fetching from `cache` when it is non-null. Tasks are weighted by vertex
/// count: runs of small contours are batched into tasks of about 4096
/// vertices and a larger contour is a task of its own (its fragment
/// storage reserved on the calling thread), so a pair of giant contours no
/// longer lands on one worker.
/// Each fragment is seq::prepare_contour's for its contour.
void prepare_inputs(par::ThreadPool& pool, PreparedInput& sub,
                    std::size_t nsub, const ContourAt& sub_at,
                    PreparedInput& clip, std::size_t nclip,
                    const ContourAt& clip_at, seq::PreparedSource* cache);

/// The request scope and slab runner of one slab_clip call.
class SlabRun {
 public:
  /// One attempt at slab `t` on `rung`: fills `so.result` and `so.load`,
  /// throws on any failure. Each attempt starts from a clean `so`.
  using Attempt = std::function<void(std::size_t t, SlabOut& so, Rung rung)>;
  /// y-extent [lo, hi] of slab task `t`, for PartialReport's missing ranges.
  using Extent = std::function<std::pair<double, double>(std::size_t t)>;

  /// Opens the request: resets `*stats`, installs `opts.cancel` on this
  /// thread for the call (a null token inherits the caller's), checkpoints
  /// — an already-dead request does no work — and opens the request span.
  SlabRun(par::ThreadPool& pool, const Alg2Options& opts, Alg2Stats* stats);

  SlabRun(const SlabRun&) = delete;
  SlabRun& operator=(const SlabRun&) = delete;

  [[nodiscard]] obs::ScopedSpan& request_span() { return req_span_; }

  /// Runs `ntasks` slab tasks through the pool's parallel_for (grain 1)
  /// under the clip span. Without fault isolation the first slab failure
  /// propagates unchanged. With it, every slab walks `ladder` (rungs in
  /// order, kHealthy first) behind a governance gate; slabs a task fault lost
  /// are recovered on the calling thread from kRetrySafe; and exhausted
  /// slabs are settled: governance-exhausted ones become a partial result
  /// (allow_partial) or the request's precise governance error, and
  /// fault-exhausted ones replace every slab output with one keyless
  /// sequential clip of `subject` op `clip`.
  void run(std::size_t ntasks, std::span<const Rung> ladder,
           const Attempt& attempt, const Extent& extent,
           const geom::PolygonSet& subject, const geom::PolygonSet& clip,
           geom::BoolOp op);

  [[nodiscard]] std::vector<SlabOut>& outs() { return outs_; }

  /// Ends the request: request span args, counters and the Alg2Stats fill.
  /// `phases` carries the caller's wall sections and its setup and merge
  /// CPU; the per-slab partition and clip CPU sums are added here.
  void finish(const geom::PolygonSet& out, PhaseTimes phases);

 private:
  par::ThreadPool& pool_;
  const Alg2Options& opts_;
  Alg2Stats* const stats_;
  std::optional<par::gov::ScopedToken> gov_scope_;
  obs::ScopedSpan req_span_;
  par::WallTimer req_timer_;
  std::vector<SlabOut> outs_;
  PartialReport partial_;
  std::vector<double> idle_seconds_;  ///< per-worker pool idle time of run()
};

}  // namespace psclip::mt
