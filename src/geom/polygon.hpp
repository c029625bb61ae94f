#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "geom/bbox.hpp"
#include "geom/point.hpp"

namespace psclip::geom {

/// One closed chain of vertices. The edge i runs from pts[i] to
/// pts[(i+1) % size]; the closing edge is implicit (the first vertex is not
/// repeated at the end). Contours may be concave and may self-intersect;
/// the clipping operators interpret regions with the even-odd fill rule,
/// matching the paper's parity-based formulation (Lemma 3).
struct Contour {
  std::vector<Point> pts;
  /// Set on *output* contours that bound a hole of the result region.
  /// Ignored on inputs (even-odd fill makes explicit hole flags redundant).
  bool hole = false;

  [[nodiscard]] std::size_t size() const { return pts.size(); }
  [[nodiscard]] bool empty() const { return pts.empty(); }
  Point& operator[](std::size_t i) { return pts[i]; }
  const Point& operator[](std::size_t i) const { return pts[i]; }
};

/// A polygon in the general sense of the paper: zero or more contours, with
/// region membership defined by even-odd parity over all contours. This also
/// models the paper's "two sets of input polygons" case (§IV): a set of
/// polygons is simply a PolygonSet with many contours.
struct PolygonSet {
  std::vector<Contour> contours;

  [[nodiscard]] bool empty() const { return contours.empty(); }
  [[nodiscard]] std::size_t num_contours() const { return contours.size(); }
  /// Total number of vertices (== number of edges) across all contours.
  [[nodiscard]] std::size_t num_vertices() const;

  void add(Contour c) { contours.push_back(std::move(c)); }
  void add(std::vector<Point> ring, bool hole = false) {
    contours.push_back(Contour{std::move(ring), hole});
  }
};

/// Shoelace signed area of one contour (positive = counter-clockwise).
double signed_area(const Contour& c);

/// Sum of contour signed areas. For clipper *output* (disjoint correctly
/// oriented contours, holes clockwise) this equals the region area.
double signed_area(const PolygonSet& p);

/// Absolute value of signed_area.
double area(const PolygonSet& p);

/// Bounding box of a contour / polygon set (empty box if no vertices).
BBox bounds(const Contour& c);
BBox bounds(const PolygonSet& p);

/// Per-contour bounding boxes, computed in one pass: out[i] == bounds of
/// contour i. Slab partitioning caches this so each contour's vertices are
/// touched once, instead of once per slab that tests the contour.
std::vector<BBox> contour_bounds(const PolygonSet& p);

/// Reverse vertex order of a contour in place (flips orientation).
void reverse(Contour& c);

/// Make a rectangle contour (counter-clockwise).
Contour make_rect(double xmin, double ymin, double xmax, double ymax);

/// Make a PolygonSet holding a single ring.
PolygonSet make_polygon(std::vector<Point> ring);

/// Uniform affine transform: p -> scale * p + offset, applied to all
/// vertices.
PolygonSet transformed(const PolygonSet& p, double scale, Point offset);

/// Drop contours with fewer than 3 vertices and collapse consecutive
/// duplicate vertices; returns the cleaned polygon.
PolygonSet cleaned(const PolygonSet& p, double eps = 0.0);

/// Per-contour form of cleaned(): removes consecutive (and closing)
/// duplicate vertices of one contour. May return a contour with fewer than
/// 3 vertices — cleaned() drops those from the set; callers operating
/// contour-by-contour (the slab engines' shared prep) must apply the same skip
/// themselves to stay bit-identical with the set pipeline.
Contour cleaned_contour(const Contour& c, double eps = 0.0);

/// As cleaned_contour, into `out` (storage reused: no allocation when its
/// capacity suffices). `out` must not alias `c`.
void cleaned_contour_into(const Contour& c, Contour& out, double eps = 0.0);

/// True when every coordinate of every vertex is finite (no NaN/Inf). The
/// slab guards post-check clipper output with this; the parsers and
/// geom::sanitize() use it to keep hostile coordinates out of the clippers.
bool is_finite(const Contour& c);
bool is_finite(const PolygonSet& p);

/// Human-readable one-line summary ("3 contours, 1204 vertices, area=...").
std::string describe(const PolygonSet& p);

}  // namespace psclip::geom
