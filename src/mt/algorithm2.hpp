#pragma once

#include "geom/bool_op.hpp"
#include "geom/polygon.hpp"
#include "mt/stats.hpp"
#include "parallel/cancel.hpp"
#include "parallel/thread_pool.hpp"
#include "seq/vatti.hpp"

namespace psclip::obs {
class TraceSink;
}
namespace psclip::seq {
class PreparedSource;
}

namespace psclip::mt {

/// Options for the multi-threaded slab clipper (Algorithm 2). Every slab
/// runs behind a guard that catches exceptions and rejects non-finite
/// output, then walks the degradation ladder: healthy → retry-safe (the
/// same cut swept on a fresh VattiScratch, byte-identical) → whole-input
/// recompute. A fault confined to one slab therefore degrades that slab
/// only; Alg2Stats::degradation records how far each slab fell.
struct Alg2Options {
  /// Number of horizontal slabs (the paper uses one per thread). 0 = four
  /// per pool thread: the pool's parallel_for hands the slabs out one at a
  /// time, so a worker that finishes early takes the next slab, which the
  /// paper's static one-slab-per-thread decomposition cannot (Fig. 11).
  /// The output depends only on the resulting slab count, never on
  /// scheduling order.
  unsigned slabs = 0;
  /// Trace + metrics sink for this run (see obs/trace.hpp). Null — the
  /// default — is the null sink: every instrumentation site collapses to
  /// one pointer test, the same "free when off" discipline as the
  /// fault.hpp injection sites. Non-null: the run records a
  /// request → phase → slab → rung span hierarchy (slab spans carry slab
  /// id, executing worker, degradation rung and attempt count) plus
  /// counters and latency histograms. The sink must outlive the call and
  /// be thread-safe (obs::TraceRecorder is).
  obs::TraceSink* trace_sink = nullptr;
  /// Request governance handle (DESIGN.md §11): cancel flag, deadline and
  /// memory budget checked at cooperative checkpoints throughout the run —
  /// phase boundaries, slab-attempt entries, parallel_for chunk boundaries
  /// and every scanbeam of the sweep. A default (null) token governs
  /// nothing and costs one null check per checkpoint; when the engine is
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
  /// the engine's setup fetches each contour's prepared fragment from the
  /// source instead (a hit skips the whole clean + coalesce + perturb +
  /// bound-decomposition pass), holding the returned shared fragments alive
  /// for the duration of the run. Because prepare_contour is a pure
  /// per-contour function of the contour bytes, output is byte-identical
  /// with the cache on, off, hitting or missing. The source must be
  /// thread-safe and outlive the call.
  seq::PreparedSource* prepared_cache = nullptr;
};

/// The paper's Algorithm 2 for a pair of arbitrary polygons (also accepts
/// multi-contour inputs), with Steps 4–5 made output-sensitive:
///
///   1–3  prepare every contour once (clean, perturb, bound decomposition)
///        into one shared bound table and its sorted distinct event
///        ordinates — the table seq::vatti_clip builds;
///   4–5  place p − 1 slab lines with (nearly) equal event counts per slab,
///        each strictly between two adjacent prepared ordinates so no
///        vertex lies on a line, and cut the table's y-monotone bounds at
///        the lines: each bound finds its crossing edges by binary search
///        (mt::SlabIndex). Nothing is rectangle-clipped or re-prepared;
///   6    sweep each slab's window of the shared table with the sequential
///        Vatti clipper (our GPC stand-in), all slabs in parallel — seeded
///        at its bottom line by the crossing edges, labelled by parity
///        prefix (Algorithm 1's Lemmas 2–3), closed along its top line
///        (seq::vatti_sweep_window),
///   8    weld the pieces along every slab line (the paper's merge,
///        Fig. 6): the pieces a slab line cut close along it in opposite
///        directions over the same exact cut points, so core::weld_seams
///        (Algorithm 1's Step 4 merge) cancels the coincident sub-edges in
///        one parallel phase, and the cut vertices — a
///        vertex on a welded line whose neighbours lie strictly on
///        opposite sides of it — are dropped by core::drop_cut_vertices,
///        restoring the input edge. Only the lines between two slabs that
///        completed on a per-slab rung are welded (a partial result keeps
///        its missing slabs' seams open).
///
/// With one slab the output is byte-identical to seq::vatti_clip; with
/// more, each slab sweeps exactly Vatti's edges and the weld removes the
/// seams, so the output is Vatti's rings (in another order, each starting
/// at another vertex) up to ties that break general position.
///
/// Two sets of polygons (GIS layers, the paper's §IV Pthreads variant)
/// are two multi-contour inputs: the same call clips them exactly under
/// every operator.
geom::PolygonSet slab_clip(const geom::PolygonSet& subject,
                           const geom::PolygonSet& clip, geom::BoolOp op,
                           par::ThreadPool& pool, const Alg2Options& opts = {},
                           Alg2Stats* stats = nullptr);

/// Former name of slab_clip for two sets of polygons, kept for callers
/// written against it.
inline geom::PolygonSet multiset_clip(const geom::PolygonSet& subject,
                                      const geom::PolygonSet& clip,
                                      geom::BoolOp op, par::ThreadPool& pool,
                                      const Alg2Options& opts = {},
                                      Alg2Stats* stats = nullptr) {
  return slab_clip(subject, clip, op, pool, opts, stats);
}

}  // namespace psclip::mt
