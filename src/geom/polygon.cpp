#include "geom/polygon.hpp"

#include <cmath>
#include <sstream>

#include "geom/eps.hpp"

namespace psclip::geom {

std::size_t PolygonSet::num_vertices() const {
  std::size_t n = 0;
  for (const auto& c : contours) n += c.size();
  return n;
}

double signed_area(const Contour& c) {
  const std::size_t n = c.size();
  if (n < 3) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    s += (c[j].x + c[i].x) * (c[i].y - c[j].y);
  }
  return 0.5 * s;
}

double signed_area(const PolygonSet& p) {
  double s = 0.0;
  for (const auto& c : p.contours) s += signed_area(c);
  return s;
}

double area(const PolygonSet& p) { return std::fabs(signed_area(p)); }

BBox bounds(const Contour& c) {
  BBox b;
  for (const auto& pt : c.pts) b.expand(pt);
  return b;
}

BBox bounds(const PolygonSet& p) {
  BBox b;
  for (const auto& c : p.contours) b.expand(bounds(c));
  return b;
}

std::vector<BBox> contour_bounds(const PolygonSet& p) {
  std::vector<BBox> out;
  out.reserve(p.num_contours());
  for (const auto& c : p.contours) out.push_back(bounds(c));
  return out;
}

void reverse(Contour& c) {
  std::reverse(c.pts.begin(), c.pts.end());
}

Contour make_rect(double xmin, double ymin, double xmax, double ymax) {
  return Contour{{{xmin, ymin}, {xmax, ymin}, {xmax, ymax}, {xmin, ymax}},
                 false};
}

PolygonSet make_polygon(std::vector<Point> ring) {
  PolygonSet p;
  p.add(std::move(ring));
  return p;
}

PolygonSet transformed(const PolygonSet& p, double scale, Point offset) {
  PolygonSet out = p;
  for (auto& c : out.contours)
    for (auto& pt : c.pts) pt = scale * pt + offset;
  return out;
}

Contour cleaned_contour(const Contour& c, double eps) {
  Contour nc;
  cleaned_contour_into(c, nc, eps);
  return nc;
}

void cleaned_contour_into(const Contour& c, Contour& out, double eps) {
  out.hole = c.hole;
  out.pts.clear();
  out.pts.reserve(c.pts.size());
  for (const auto& pt : c.pts) {
    if (!out.pts.empty() && nearly_equal(out.pts.back().x, pt.x, eps) &&
        nearly_equal(out.pts.back().y, pt.y, eps))
      continue;
    out.pts.push_back(pt);
  }
  while (out.pts.size() > 1 &&
         nearly_equal(out.pts.front().x, out.pts.back().x, eps) &&
         nearly_equal(out.pts.front().y, out.pts.back().y, eps))
    out.pts.pop_back();
}

PolygonSet cleaned(const PolygonSet& p, double eps) {
  PolygonSet out;
  for (const auto& c : p.contours) {
    Contour nc = cleaned_contour(c, eps);
    if (nc.pts.size() >= 3) out.contours.push_back(std::move(nc));
  }
  return out;
}

bool is_finite(const Contour& c) {
  for (const auto& pt : c.pts)
    if (!std::isfinite(pt.x) || !std::isfinite(pt.y)) return false;
  return true;
}

bool is_finite(const PolygonSet& p) {
  for (const auto& c : p.contours)
    if (!is_finite(c)) return false;
  return true;
}

std::string describe(const PolygonSet& p) {
  std::ostringstream os;
  os << p.num_contours() << " contours, " << p.num_vertices()
     << " vertices, signed_area=" << signed_area(p);
  return os.str();
}

}  // namespace psclip::geom
