#pragma once

// Shared helpers for the psclip test suite: deterministic random polygon
// construction (mirroring the paper's synthetic workloads) and the area /
// point-classification referees used by the differential tests.

#include <algorithm>
#include <cmath>
#include <compare>
#include <random>
#include <utility>
#include <vector>

#include "core/scanbeam.hpp"
#include "geom/area_oracle.hpp"
#include "geom/point.hpp"
#include "geom/point_in_polygon.hpp"
#include "geom/polygon.hpp"

namespace psclip::test {

/// Star-shaped simple polygon with jittered radii/angles; optionally
/// shuffled into a self-intersecting one.
inline geom::PolygonSet random_polygon(std::uint64_t seed, int n, double cx,
                                       double cy, double r,
                                       bool self_intersecting = false) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.3, 1.0);
  std::uniform_real_distribution<double> ang(0.0, 0.9 * 2.0 * M_PI / n);
  std::vector<geom::Point> ring;
  ring.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double a = 2.0 * M_PI * i / n + ang(rng);
    const double rad = r * u(rng);
    ring.push_back({cx + rad * std::cos(a), cy + rad * std::sin(a)});
  }
  if (self_intersecting) {
    std::uniform_int_distribution<std::size_t> pick(0, ring.size() - 1);
    for (int s = 0; s < n / 4 + 1; ++s)
      std::swap(ring[pick(rng)], ring[pick(rng)]);
  }
  geom::PolygonSet p;
  p.add(std::move(ring));
  return p;
}

/// Relative-tolerance area agreement used by all differential tests.
inline bool areas_match(double got, double want, double tol = 1e-6) {
  return std::fabs(got - want) <= tol * (1.0 + std::fabs(want));
}

/// Monte-Carlo point-classification agreement between a clipper result and
/// the definition `in_result(pip(A), pip(B), op)`. Returns the fraction of
/// agreeing samples in [0, 1].
inline double pip_agreement(const geom::PolygonSet& a,
                            const geom::PolygonSet& b, geom::BoolOp op,
                            const geom::PolygonSet& result, int samples,
                            std::uint64_t seed) {
  geom::BBox box = geom::bounds(a);
  box.expand(geom::bounds(b));
  if (box.empty()) return 1.0;
  const double pad = 0.05 * std::max(box.width(), box.height());
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> ux(box.xmin - pad, box.xmax + pad);
  std::uniform_real_distribution<double> uy(box.ymin - pad, box.ymax + pad);
  int agree = 0;
  for (int i = 0; i < samples; ++i) {
    const geom::Point p{ux(rng), uy(rng)};
    const bool want = geom::in_result(geom::point_in_polygon(p, a),
                                      geom::point_in_polygon(p, b), op);
    if (want == geom::point_in_polygon(p, result)) ++agree;
  }
  return static_cast<double>(agree) / samples;
}

/// One output ring with its hole flag, rotated to start at its smallest
/// (x, y) vertex; the orientation is kept.
struct Ring {
  bool hole = false;
  std::vector<std::pair<double, double>> pts;
  auto operator<=>(const Ring&) const = default;
};

/// `p` as a sorted list of normalized rings: two outputs holding the same
/// rings, in any order and each starting at any vertex, compare equal.
inline std::vector<Ring> normalized_rings(const geom::PolygonSet& p) {
  std::vector<Ring> rings;
  rings.reserve(p.contours.size());
  for (const geom::Contour& c : p.contours) {
    Ring r{c.hole, {}};
    for (const geom::Point& q : c.pts) r.pts.emplace_back(q.x, q.y);
    std::rotate(r.pts.begin(), std::min_element(r.pts.begin(), r.pts.end()),
                r.pts.end());
    rings.push_back(std::move(r));
  }
  std::sort(rings.begin(), rings.end());
  return rings;
}

/// Algorithm 1 Steps 1–2 on (a, b): vatti_clip's bound table and its
/// scanbeam partition.
struct Partitioned {
  seq::BoundTable bt;
  core::ScanbeamPartition part;
};

inline Partitioned partition(par::ThreadPool& pool, const geom::PolygonSet& a,
                             const geom::PolygonSet& b = {}) {
  Partitioned p;
  std::vector<double> ys;
  geom::Contour prep;
  seq::build_bounds_into(p.bt, ys, a, b, prep);
  p.part = core::partition_scanbeams(pool, p.bt, std::move(ys));
  return p;
}

}  // namespace psclip::test
