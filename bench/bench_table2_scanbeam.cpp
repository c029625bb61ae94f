// Table II: the scanbeam table for a self-intersecting subject clipped by
// a convex clip polygon, in the spirit of the paper's Fig. 2 example —
// for each scanbeam, the active edges and the labeled output activity.

#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/beam_sweep.hpp"
#include "core/scanbeam.hpp"
#include "parallel/thread_pool.hpp"
#include "seq/bounds.hpp"

int main() {
  using namespace psclip;
  bench::header("Table II — scanbeam table (edges and partial polygons per beam)",
                "paper Table II / Fig. 2");

  // Fig. 2 flavour: self-intersecting subject (bowtie-like, labeled s*)
  // overlapped by a concave clip polygon (labeled c*).
  geom::PolygonSet subject = geom::make_polygon(
      {{0.5, 0.0}, {8.0, 5.5}, {7.5, 0.4}, {1.0, 6.0}, {0.0, 3.0}});
  geom::PolygonSet clip = geom::make_polygon(
      {{2.0, 1.0}, {9.0, 1.4}, {9.5, 4.0}, {5.0, 3.1}, {3.0, 5.0}});

  seq::BoundTable bt;
  std::vector<double> ys;
  geom::Contour prep;
  seq::build_bounds_into(bt, ys, subject, clip, prep);

  par::ThreadPool pool(2);
  const auto part = core::partition_scanbeams(pool, bt, std::move(ys));

  std::printf("%-6s %-24s %6s %6s %9s %9s\n", "beam", "y-range", "edges",
              "cross", "partials", "area");
  for (std::size_t b = 0; b < part.num_beams(); ++b) {
    const auto lo = static_cast<std::size_t>(part.offsets[b]);
    const auto hi = static_cast<std::size_t>(part.offsets[b + 1]);
    const auto br = core::process_beam(
        bt, std::span<const std::int32_t>(part.edge_ids).subspan(lo, hi - lo),
        part.ys[b], part.ys[b + 1], geom::BoolOp::kIntersection);
    double area = 0;
    for (const auto& r : br.rings) area += geom::signed_area(r);
    char range[64];
    std::snprintf(range, sizeof range, "[%7.3f, %7.3f]", part.ys[b],
                  part.ys[b + 1]);
    std::printf("%-6zu %-24s %6zu %6lld %9zu %9.4f\n", b, range, hi - lo,
                static_cast<long long>(br.intersections), br.rings.size(),
                area);
  }
  std::printf("\nn (edges) = %zu, m (beams) = %zu, k' = %lld\n",
              bt.num_edges(), part.num_beams(),
              static_cast<long long>(part.k_prime(bt.num_edges())));
  return 0;
}
