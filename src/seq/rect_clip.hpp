#pragma once

#include "geom/bbox.hpp"
#include "geom/polygon.hpp"

namespace psclip::seq {

/// Clipper behind rect_clip. The paper rectangle-clips both inputs per
/// slab in Algorithm 2's Steps 4–5 and picks Greiner–Hormann over GPC for
/// that job; the slab engine no longer clips rectangles (it cuts prepared
/// bounds, see mt::SlabIndex), so rect_clip serves viewport clipping and
/// the bench_ablation_rectclip comparison.
enum class RectClipMethod {
  kGreinerHormann,     ///< the paper's choice for Steps 4–5
  kVatti,              ///< general clipper on a rectangle (GPC's role)
  kSutherlandHodgman,  ///< half-plane cascade (bridged output)
};

const char* to_string(RectClipMethod m);

/// Clip `subject` to the axis-aligned rectangle.
///
/// Contours entirely inside are passed through untouched, contours
/// entirely outside are dropped, and only boundary-straddling contours run
/// through the selected clipper.
geom::PolygonSet rect_clip(const geom::PolygonSet& subject,
                           const geom::BBox& rect,
                           RectClipMethod method = RectClipMethod::kGreinerHormann);

}  // namespace psclip::seq
