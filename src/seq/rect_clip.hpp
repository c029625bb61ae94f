#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/bbox.hpp"
#include "geom/polygon.hpp"
#include "seq/bounds.hpp"

namespace psclip::seq {

/// Method used for the rectangle-clipping steps of Algorithm 2 (the paper
/// evaluates Greiner–Hormann against GPC for this job and picks GH as the
/// faster option; we expose the same choice plus the baselines so it can
/// be ablated).
enum class RectClipMethod {
  kGreinerHormann,     ///< the paper's choice for Steps 4–5
  kVatti,              ///< general clipper on a rectangle (GPC's role)
  kSutherlandHodgman,  ///< half-plane cascade (bridged output)
};

const char* to_string(RectClipMethod m);

/// Clip `subject` to the axis-aligned rectangle.
///
/// Contours entirely inside are passed through untouched (common fast path
/// for slab partitioning), contours entirely outside are dropped, and only
/// boundary-straddling contours run through the selected clipper.
geom::PolygonSet rect_clip(const geom::PolygonSet& subject,
                           const geom::BBox& rect,
                           RectClipMethod method = RectClipMethod::kGreinerHormann);

/// Reusable scratch for clip_bounds_to_slab: the staging buffers survive
/// between calls (a slab-arena worker resets them instead of reallocating
/// them for every slab task).
struct RectClipScratch {
  geom::PolygonSet straddling;
  geom::PolygonSet pieces;      ///< clip_bounds_to_slab: rect-clip output
  PreparedContour piece_prep;   ///< clip_bounds_to_slab: per-piece prep
};

/// Deterministic work counters of one clip_bounds_to_slab call.
struct FusedClipStats {
  /// Bound edges appended for this input (prepared fragments + piece
  /// fragments) — the fused analogue of SlabLoad::touched_edges' "vertices
  /// the partition read".
  std::int64_t touched_edges = 0;
  /// Piece edges lying exactly on the slab's bottom or top boundary line —
  /// the degeneracy-rich edges the rectangle clipper stitches in (before
  /// coalescing).
  std::int64_t boundary_edges = 0;
};

/// Fused partition path (Alg2Partition::kFused): rect-clip *bounds, not
/// contours*. For one input (subject or clip) of one slab, append directly
/// to `bt`:
///
///  - contours fully inside the slab (`inside[i]`): their globally prepared
///    bound fragment `prepared[i]` is copied in with index fixups
///    (append_prepared) — no re-clean, no re-perturbation, no per-slab
///    bound re-derivation. `prepared[i]` may be null (degenerate after
///    prep: contributes nothing, exactly as the set pipeline drops it).
///  - boundary-straddling contours: `originals[i]` runs through the
///    selected rectangle clipper (byte-identical pieces to rect_clip, same
///    kRectClip fault sites), and each piece is prepared and appended —
///    after every inside fragment, which is the emission order rect_clip
///    feeds the set pipeline.
///
/// The per-slab scanbeam schedule is assembled as sorted runs in
/// `ys`/`run_end` (see merge_sorted_runs_unique): one run per piece, plus
/// one run per inside contour whose schedule is NOT already covered by the
/// caller's shared global slice (`in_shared[i] == 0`). Minima are appended
/// unsorted; the caller finishes the table with sort_minima once both
/// inputs are in.
///
/// Returns false when any used fragment or piece carries a non-finite
/// vertex (the caller must fail the slab attempt exactly as the
/// materializing path's is_finite post-check does). Fires the kFusedBounds
/// fault-injection site on entry; the corruption hook poisons the piece
/// set, which surfaces through the same false return.
bool clip_bounds_to_slab(std::span<const PreparedContour* const> prepared,
                         std::span<const geom::Contour* const> originals,
                         std::span<const std::uint8_t> inside,
                         std::span<const std::uint8_t> in_shared,
                         const geom::BBox& rect, RectClipMethod method,
                         bool is_clip, RectClipScratch* scratch,
                         BoundTable& bt, std::vector<double>& ys,
                         std::vector<std::size_t>& run_end,
                         FusedClipStats* stats = nullptr);

}  // namespace psclip::seq
