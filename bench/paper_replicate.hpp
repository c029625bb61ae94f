#pragma once

// The paper's scheme for two sets of polygons (§IV), kept for the union
// rows of Fig. 10 and Fig. 12: cut the polygons' MBR y-extents into slabs
// of equal event counts, replicate every polygon into each slab its MBR
// overlaps, clip each slab with vatti_clip, all slabs in parallel, and
// drop the duplicate outputs that replicated pairs produce. Approximate
// for union: a cluster that spans a slab line merges with different
// partners in different slabs. mt::slab_clip is the library's exact
// engine; this scheme only reproduces the paper's numbers.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "geom/bbox.hpp"
#include "geom/bool_op.hpp"
#include "geom/polygon.hpp"
#include "mt/stats.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/timing.hpp"
#include "seq/vatti.hpp"

namespace psclip::bench {

/// Clip `a` op `b` with the paper's replicate-and-dedup scheme on `slabs`
/// slabs. Fills stats->slabs (per-slab clip time and work),
/// output_contours and duplicates_removed.
inline geom::PolygonSet replicate_clip(const geom::PolygonSet& a,
                                       const geom::PolygonSet& b,
                                       geom::BoolOp op, par::ThreadPool& pool,
                                       unsigned slabs, mt::Alg2Stats* stats) {
  if (stats) *stats = mt::Alg2Stats{};
  std::vector<geom::BBox> box_a, box_b;
  std::vector<double> events;  // both y-extents of every polygon MBR
  for (const auto [set, boxes] : {std::pair{&a, &box_a}, std::pair{&b, &box_b}})
    for (const geom::Contour& c : set->contours) {
      boxes->push_back(geom::bounds(c));
      if (boxes->back().empty()) continue;
      events.push_back(boxes->back().ymin);
      events.push_back(boxes->back().ymax);
    }
  if (events.empty()) return {};
  std::sort(events.begin(), events.end());
  // Slab lines at equal event counts, between adjacent events.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> lines{-kInf};
  for (unsigned t = 1; t < slabs; ++t) {
    const std::size_t cut = t * events.size() / slabs;
    if (cut == 0) continue;
    const double y = 0.5 * (events[cut - 1] + events[cut]);
    if (y > lines.back()) lines.push_back(y);
  }
  lines.push_back(kInf);

  const std::size_t p = lines.size() - 1;
  std::vector<geom::PolygonSet> outs(p);
  std::vector<mt::SlabLoad> loads(p);
  pool.parallel_for(
      p,
      [&](std::size_t t) {
        const double lo = lines[t], hi = lines[t + 1];
        const auto replicate = [&](const geom::PolygonSet& set,
                                   const std::vector<geom::BBox>& boxes) {
          geom::PolygonSet in;
          for (std::size_t i = 0; i < boxes.size(); ++i)
            if (!boxes[i].empty() && boxes[i].ymin <= hi && boxes[i].ymax >= lo)
              in.contours.push_back(set.contours[i]);
          return in;
        };
        const geom::PolygonSet sa = replicate(a, box_a);
        const geom::PolygonSet sb = replicate(b, box_b);
        par::WallTimer timer;
        seq::VattiStats vs;
        outs[t] = seq::vatti_clip(sa, sb, op, &vs);
        loads[t].seconds = timer.seconds();
        loads[t].input_edges = vs.edges;
        loads[t].output_vertices = vs.output_vertices;
      },
      /*grain=*/1);

  // A replicated pair yields the same ring in every slab holding it, up to
  // perturbation noise: match on vertex count, area and centroid.
  struct Sig {
    std::size_t index, n;
    double area, cx, cy;
  };
  geom::PolygonSet merged;
  for (geom::PolygonSet& o : outs)
    for (geom::Contour& c : o.contours) merged.contours.push_back(std::move(c));
  std::vector<Sig> sigs;
  for (std::size_t i = 0; i < merged.contours.size(); ++i) {
    const geom::Contour& c = merged.contours[i];
    Sig s{i, c.size(), std::fabs(geom::signed_area(c)), 0.0, 0.0};
    for (const geom::Point& q : c.pts) {
      s.cx += q.x / static_cast<double>(s.n);
      s.cy += q.y / static_cast<double>(s.n);
    }
    sigs.push_back(s);
  }
  std::sort(sigs.begin(), sigs.end(), [](const Sig& x, const Sig& y) {
    return x.n != y.n ? x.n < y.n : x.area < y.area;
  });
  const auto close = [](double x, double y) {
    return std::fabs(x - y) <= 1e-7 * (1.0 + std::fabs(x));
  };
  std::vector<std::uint8_t> drop(sigs.size(), 0);
  std::int64_t dups = 0;
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    if (drop[sigs[i].index]) continue;
    for (std::size_t j = i + 1; j < sigs.size() && sigs[j].n == sigs[i].n &&
                                close(sigs[i].area, sigs[j].area);
         ++j)
      if (!drop[sigs[j].index] && close(sigs[i].cx, sigs[j].cx) &&
          close(sigs[i].cy, sigs[j].cy)) {
        drop[sigs[j].index] = 1;
        ++dups;
      }
  }
  geom::PolygonSet out;
  for (std::size_t i = 0; i < merged.contours.size(); ++i)
    if (!drop[i]) out.contours.push_back(std::move(merged.contours[i]));
  if (stats) {
    stats->slabs = std::move(loads);
    stats->output_contours = static_cast<std::int64_t>(out.num_contours());
    stats->duplicates_removed = dups;
  }
  return out;
}

}  // namespace psclip::bench
