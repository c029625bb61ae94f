#pragma once

#include "geom/bool_op.hpp"
#include "geom/polygon.hpp"
#include "mt/stats.hpp"
#include "parallel/cancel.hpp"
#include "parallel/thread_pool.hpp"
#include "seq/rect_clip.hpp"
#include "seq/vatti.hpp"

namespace psclip::obs {
class TraceSink;
}
namespace psclip::seq {
class PreparedSource;
}

namespace psclip::mt {

/// How Algorithm 2's Steps 4–5 select the input handed to each slab task.
enum class Alg2Partition {
  /// The paper's formulation: every slab task scans both whole input sets
  /// and rectangle-clips them against its slab. O(p·n) partition work.
  /// Retained as the identity reference and as the degradation ladder's
  /// kRetrySafe rung; produces byte-identical output.
  kBroadcast,
  /// Fused slab-local bound construction (the default): a slab-overlap
  /// contour index (one parallel pass caches the per-contour y-intervals, a
  /// sort + prefix-sum pass lists the contours overlapping every slab)
  /// limits each slab task to the contours it overlaps, and contours are
  /// prepared (clean + coalesce + perturb + bound decomposition) once
  /// globally, so each slab task rect-clips *bounds, not contours* —
  /// fully-inside contours drop their prepared bound fragment straight into
  /// the worker arena's BoundTable, straddling contours are rectangle-
  /// clipped and only their pieces re-prepared, and the per-slab scanbeam
  /// schedule is sliced from one shared globally merged y-schedule instead
  /// of re-sorted per slab (seq::clip_bounds_to_slab). Partition work is
  /// O(n log n + Σ_t n_t), output-sensitive in the slab overlap sizes n_t.
  /// Byte-identical output to kBroadcast.
  kFused,
};

/// Options both slab engines (slab_clip and multiset_clip) share. The
/// fault, governance and tracing policy that reads them is common to both.
struct SlabEngineOptions {
  /// Per-beam maintenance strategy of the sequential Vatti sweep that runs
  /// inside every slab (see seq::SweepKernel). Both settings produce
  /// byte-identical output; kReference reproduces the pre-optimization cost
  /// profile and exists for the bench_sweep_kernel ablation and the
  /// kernel-identity tests.
  seq::SweepKernel sweep_kernel = seq::SweepKernel::kTuned;
  /// Fault isolation (default on): every slab task runs behind a guard that
  /// catches exceptions and rejects non-finite output, then walks the
  /// engine's degradation ladder (see mt::Rung) and, if a slab still cannot
  /// complete, falls back to one sequential whole-input clip. A fault
  /// confined to one slab therefore degrades that slab only;
  /// Alg2Stats::degradation records how far each slab fell. Off: the first
  /// slab failure propagates out of the engine unchanged (fail-fast).
  bool isolate_faults = true;
  /// Trace + metrics sink for this run (see obs/trace.hpp). Null — the
  /// default — is the null sink: every instrumentation site collapses to
  /// one pointer test, the same "free when off" discipline as the
  /// fault.hpp injection sites. Non-null: the run records a
  /// request → phase → slab → rung span hierarchy (slab spans carry slab
  /// id, executing worker, degradation rung and attempt count) plus
  /// per-engine counters and latency histograms. The sink must outlive the call and be thread-safe
  /// (obs::TraceRecorder is).
  obs::TraceSink* trace_sink = nullptr;
  /// Request governance handle (DESIGN.md §11): cancel flag, deadline and
  /// memory budget checked at cooperative checkpoints throughout the run —
  /// phase boundaries, slab-attempt entries, parallel_for chunk boundaries
  /// and every scanbeam of the sweep. A default (null) token governs
  /// nothing and costs one null check per checkpoint; when an engine is
  /// called with a token already installed on the thread (psclip::clip
  /// facade), leaving this null inherits it.
  par::CancelToken cancel;
  /// Partial-result contract: when a slab is abandoned because the
  /// request's deadline, budget or cancellation tripped, return the
  /// completed slabs instead of failing the whole request. Abandoned slabs
  /// report Rung::kPartialResult and Alg2Stats::partial names the missing
  /// slab index ranges and their y-extents. Off (default): the first
  /// governance trip propagates out of the engine as its precise Error
  /// (kCancelled / kDeadlineExceeded / kBudgetExceeded).
  bool allow_partial = false;
  /// Cross-request prepared-contour source (svc::PreparedCache). Null — the
  /// default — prepares every contour locally inside this call. Non-null:
  /// the fused setup fetches each contour's prepared fragment from the
  /// source instead (a hit skips the whole clean + coalesce + perturb +
  /// bound-decomposition pass), holding the returned shared fragments alive
  /// for the duration of the run. Because prepare_contour is a pure
  /// per-contour function of the contour bytes, output is byte-identical
  /// with the cache on, off, hitting or missing. The source must be
  /// thread-safe and outlive the call.
  seq::PreparedSource* prepared_cache = nullptr;
};

/// Options for the multi-threaded slab clipper (Algorithm 2). The
/// ladder is retry-safe → alternate rectangle clipper → per-slab
/// sequential Vatti → whole-input recompute.
struct Alg2Options : SlabEngineOptions {
  /// Number of horizontal slabs (the paper uses one per thread). 0 = derive
  /// from the pool: oversubscribe × pool.size().
  unsigned slabs = 0;
  /// Adaptive over-partitioning factor used when `slabs == 0`: the input is
  /// cut into oversubscribe × p slabs, which the pool's parallel_for hands
  /// out one at a time, so a worker that finishes early takes the next
  /// slab. The paper's static one-slab-per-thread decomposition
  /// (oversubscribe = 1) leaves workers idle while the heaviest slab
  /// finishes (Fig. 11); a factor of ~4 trades a little extra rectangle
  /// clipping for a much tighter per-worker load distribution. The slab
  /// decomposition — and therefore the output — depends only on the
  /// resulting slab count, never on scheduling order.
  unsigned oversubscribe = 4;
  /// Clipper used for the rectangle-clipping Steps 4–5; the paper picks
  /// Greiner–Hormann after benchmarking it against GPC.
  seq::RectClipMethod rect_method = seq::RectClipMethod::kGreinerHormann;
  /// Partition-input selection strategy (see Alg2Partition). Both settings
  /// produce byte-identical results; kBroadcast is the identity reference.
  Alg2Partition partition = Alg2Partition::kFused;
};

/// The paper's Algorithm 2 for a pair of arbitrary polygons (also accepts
/// multi-contour inputs):
///
///   1–2  collect and sort the distinct vertex ordinates,
///   3    compute the minimum bounding rectangle of A ∪ B,
///   4–5  cut both inputs into p horizontal slabs with (nearly) equal
///        event-point counts; slab boundaries are placed *between*
///        adjacent event ordinates so no vertex lies on a boundary,
///   6    clip each slab pair with the sequential Vatti clipper
///        (our GPC stand-in), all slabs in parallel,
///   8    concatenate the per-slab outputs (the paper's sequential merge:
///        pieces have disjoint interiors, so concatenation is the even-odd
///        union; contours crossing slab boundaries remain split, exactly
///        as in the paper).
geom::PolygonSet slab_clip(const geom::PolygonSet& subject,
                           const geom::PolygonSet& clip, geom::BoolOp op,
                           par::ThreadPool& pool, const Alg2Options& opts = {},
                           Alg2Stats* stats = nullptr);

}  // namespace psclip::mt
