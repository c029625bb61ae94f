#include "seq/rect_clip.hpp"

#include "seq/greiner_hormann.hpp"
#include "seq/sutherland_hodgman.hpp"
#include "seq/vatti.hpp"

namespace psclip::seq {
namespace {

/// Run the selected clipper on the boundary-straddling contours against the
/// rectangle ring and append the pieces to `out`.
void clip_straddling(const geom::PolygonSet& straddling,
                     const geom::BBox& rect, RectClipMethod method,
                     geom::PolygonSet& out) {
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

}  // namespace psclip::seq
