#include "seq/rect_clip.hpp"

#include <cassert>
#include <limits>

#include "parallel/fault.hpp"
#include "seq/greiner_hormann.hpp"
#include "seq/sutherland_hodgman.hpp"
#include "seq/vatti.hpp"

namespace psclip::seq {
namespace {

/// Run the selected clipper on the boundary-straddling contours against the
/// rectangle ring and append the pieces to `out`. Shared by the broadcast
/// path (rect_clip) and the fused path (clip_bounds_to_slab) so the two
/// produce bit-identical pieces for the same straddling set.
void clip_straddling(const geom::PolygonSet& straddling,
                     const geom::BBox& rect, RectClipMethod method,
                     geom::PolygonSet& out) {
  par::fault::inject(par::fault::Site::kRectClip);
  const geom::Contour rring =
      geom::make_rect(rect.xmin, rect.ymin, rect.xmax, rect.ymax);
  geom::PolygonSet clipped;
  switch (method) {
    case RectClipMethod::kGreinerHormann:
      clipped = greiner_hormann(straddling, rring,
                                geom::BoolOp::kIntersection);
      break;
    case RectClipMethod::kVatti: {
      geom::PolygonSet rp;
      rp.contours.push_back(rring);
      clipped = vatti_clip(straddling, rp, geom::BoolOp::kIntersection);
      break;
    }
    case RectClipMethod::kSutherlandHodgman:
      clipped = sutherland_hodgman(straddling, rring);
      break;
  }
  for (auto& c : clipped.contours) out.contours.push_back(std::move(c));
  if (par::fault::corrupt(par::fault::Site::kRectClip)) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    out.add({{nan, nan}, {0.0, 0.0}, {1.0, 1.0}});
  }
}

}  // namespace

const char* to_string(RectClipMethod m) {
  switch (m) {
    case RectClipMethod::kGreinerHormann: return "GH";
    case RectClipMethod::kVatti: return "Vatti";
    case RectClipMethod::kSutherlandHodgman: return "SH";
  }
  return "?";
}

geom::PolygonSet rect_clip(const geom::PolygonSet& subject,
                           const geom::BBox& rect, RectClipMethod method) {
  geom::PolygonSet out;
  geom::PolygonSet straddling;
  for (const auto& c : subject.contours) {
    const geom::BBox cb = geom::bounds(c);
    if (!cb.overlaps(rect)) continue;  // fully outside
    if (cb.xmin >= rect.xmin && cb.xmax <= rect.xmax && cb.ymin >= rect.ymin &&
        cb.ymax <= rect.ymax) {
      out.contours.push_back(c);  // fully inside
      continue;
    }
    straddling.contours.push_back(c);
  }
  if (straddling.empty()) return out;
  clip_straddling(straddling, rect, method, out);
  return out;
}

bool clip_bounds_to_slab(std::span<const PreparedContour* const> prepared,
                         std::span<const geom::Contour* const> originals,
                         std::span<const std::uint8_t> inside,
                         std::span<const std::uint8_t> in_shared,
                         const geom::BBox& rect, RectClipMethod method,
                         bool is_clip, RectClipScratch* scratch,
                         BoundTable& bt, std::vector<double>& ys,
                         std::vector<std::size_t>& run_end,
                         FusedClipStats* stats) {
  assert(prepared.size() == inside.size());
  assert(originals.size() == inside.size());
  assert(in_shared.size() == inside.size());
  assert(!run_end.empty() && run_end.back() == ys.size());
  par::fault::inject(par::fault::Site::kFusedBounds);
  RectClipScratch local;
  RectClipScratch& sc = scratch ? *scratch : local;
  bool finite = true;

  // Inside contours first, in list order — the emission order rect_clip
  // hands the set pipeline, so the assembled table's
  // pre-sort minima sequence is identical to the materializing path's.
  sc.straddling.contours.clear();
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    if (!inside[i]) {
      sc.straddling.contours.push_back(*originals[i]);
      continue;
    }
    const PreparedContour* pc = prepared[i];
    if (pc == nullptr) continue;  // degenerate after prep: no bounds
    if (!pc->finite) {
      // The materializing path would carry the non-finite vertex into the
      // slab inputs and fail its is_finite pre-sweep check; report the same
      // condition without building on poisoned geometry.
      finite = false;
      continue;
    }
    append_prepared(bt, *pc);
    if (stats)
      stats->touched_edges += static_cast<std::int64_t>(pc->bt.edges.size());
    if (!in_shared[i] && !pc->ys.empty()) {
      // Stray: inside by the (closed-interval) index but not strictly
      // contained in this slab's open interval once prepared — its ys are
      // not covered by the shared global schedule slice, so merge them as
      // an explicit run.
      ys.insert(ys.end(), pc->ys.begin(), pc->ys.end());
      run_end.push_back(ys.size());
    }
  }

  // Straddling contours: identical pieces to rect_clip
  // (same clipper, same straddling set, same kRectClip fault sites), but
  // each piece goes straight through the shared per-contour prep into the
  // bound table — never into an intermediate slab polygon set.
  sc.pieces.contours.clear();
  if (!sc.straddling.empty())
    clip_straddling(sc.straddling, rect, method, sc.pieces);
  if (par::fault::corrupt(par::fault::Site::kFusedBounds)) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    sc.pieces.add({{nan, nan}, {0.0, 0.0}, {1.0, 1.0}});
  }
  for (const geom::Contour& piece : sc.pieces.contours) {
    if (!geom::is_finite(piece)) {
      finite = false;
      continue;
    }
    if (stats) {
      // Boundary-degeneracy metric: piece edges lying exactly on the slab's
      // cut lines, counted before coalescing folds them away.
      const std::size_t n = piece.size();
      for (std::size_t a = 0, b = n - 1; a < n; b = a++) {
        const double y = piece[a].y;
        if (piece[b].y == y && (y == rect.ymin || y == rect.ymax))
          ++stats->boundary_edges;
      }
    }
    if (!prepare_contour(piece, is_clip, sc.piece_prep)) continue;
    append_prepared(bt, sc.piece_prep);
    if (stats)
      stats->touched_edges +=
          static_cast<std::int64_t>(sc.piece_prep.bt.edges.size());
    if (!sc.piece_prep.ys.empty()) {
      ys.insert(ys.end(), sc.piece_prep.ys.begin(), sc.piece_prep.ys.end());
      run_end.push_back(ys.size());
    }
  }
  return finite;
}

}  // namespace psclip::seq
