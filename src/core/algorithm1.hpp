#pragma once

#include <cstdint>

#include "geom/bool_op.hpp"
#include "geom/polygon.hpp"
#include "parallel/thread_pool.hpp"

namespace psclip::obs {
class TraceSink;
}

namespace psclip::core {

/// Instrumentation for the paper's complexity quantities and per-stage
/// timings (used by tests and by bench_alg1_stages).
struct Alg1Stats {
  std::int64_t edges = 0;          ///< n: bound edges from both inputs
  std::int64_t scanbeams = 0;      ///< m
  std::int64_t k_prime = 0;        ///< extra edge pieces from partitioning
  std::int64_t intersections = 0;  ///< k: crossings over all beams
  std::int64_t partial_polys = 0;  ///< partial rings before merging
  double t_sort_partition = 0.0;   ///< Steps 1–2 seconds
  double t_beams = 0.0;            ///< Step 3 seconds
  double t_merge = 0.0;            ///< Step 4 seconds
};

/// Options for scanbeam_clip.
struct Alg1Options {
  /// Trace + metrics sink for this run; null (default) = tracing off at the
  /// cost of one pointer test per site. Same contract as
  /// Alg2Options::trace_sink. Records an alg1 request span with
  /// partition/beams/merge phase children plus alg1.* counters.
  obs::TraceSink* trace_sink = nullptr;
};

/// The paper's Algorithm 1: output-sensitive multi-way divide-and-conquer
/// polygon clipping.
///
///  Step 1  build vatti_clip's bound table and sort the event ordinates
///          into its scanbeam schedule (seq::build_bounds_into),
///  Step 2  partition the edges into scanbeams (segment tree, two-phase
///          count/report — the processor allocation is output-sensitive in
///          k'),
///  Step 3  process every scanbeam independently in parallel (Lemmas 1–4:
///          local labeling, prefix-sum contributing test, intersections by
///          inversion reporting, partial-polygon assembly; the crossings
///          go through the crossing step vatti_clip uses,
///          seq::process_crossings),
///  Step 4  merge partial polygons across beams (Fig. 6) and remove the
///          virtual vertices the partition added: core::weld_seams, the
///          merge slab_clip uses. Fig. 6's log m reduction phases collapse
///          into one parallel phase over every scanline, because welds of
///          distinct lines touch disjoint slots (the output bytes are the
///          tree's).
///
/// Returns vatti_clip's rings (in another order, each starting at another
/// vertex) for all four operators, including self-intersecting inputs, up
/// to ties that break general position.
geom::PolygonSet scanbeam_clip(const geom::PolygonSet& subject,
                               const geom::PolygonSet& clip, geom::BoolOp op,
                               par::ThreadPool& pool,
                               Alg1Stats* stats = nullptr,
                               const Alg1Options& opts = {});

}  // namespace psclip::core
