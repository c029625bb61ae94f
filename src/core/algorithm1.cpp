#include "core/algorithm1.hpp"

#include <span>
#include <utility>
#include <vector>

#include "core/beam_sweep.hpp"
#include "core/merge.hpp"
#include "core/scanbeam.hpp"
#include "obs/trace.hpp"
#include "parallel/cancel.hpp"
#include "parallel/timing.hpp"

namespace psclip::core {

geom::PolygonSet scanbeam_clip(const geom::PolygonSet& subject,
                               const geom::PolygonSet& clip, geom::BoolOp op,
                               par::ThreadPool& pool, Alg1Stats* stats,
                               const Alg1Options& opts) {
  obs::TraceSink* const sink = opts.trace_sink;
  par::PhaseClock request(sink, "alg1.scanbeam_clip", obs::Cat::kRequest);
  // Phase-boundary governance checkpoints (DESIGN.md §11): inherited from
  // the token the caller installed; free when none is.
  par::gov::checkpoint_now();

  par::PhaseClock partition(sink, "alg1.partition");
  seq::BoundTable bt;
  std::vector<double> ys;
  geom::Contour prep;
  seq::build_bounds_into(bt, ys, subject, clip, prep);
  const ScanbeamPartition part = partition_scanbeams(pool, bt, std::move(ys));
  const std::size_t m = part.num_beams();
  partition.span().arg("edges", static_cast<std::int64_t>(bt.num_edges()));
  partition.span().arg("scanbeams", static_cast<std::int64_t>(m));
  partition.span().arg("k_prime", part.k_prime(bt.num_edges()));
  const double t_partition = partition.stop().wall;
  par::gov::checkpoint_now();

  // Step 3: all scanbeams in parallel. Results land in per-beam slots, so
  // no cross-beam synchronization is needed beyond the final collection.
  par::PhaseClock beams_clock(sink, "alg1.beams");
  std::vector<BeamResult> beams(m);
  pool.parallel_for(
      m,
      [&](std::size_t b) {
        const auto lo = static_cast<std::size_t>(part.offsets[b]);
        const auto hi = static_cast<std::size_t>(part.offsets[b + 1]);
        beams[b] = process_beam(
            bt, std::span<const std::int32_t>(part.edge_ids).subspan(lo, hi - lo),
            part.ys[b], part.ys[b + 1], op);
      },
      /*grain=*/1);
  const double t_beams = beams_clock.stop().wall;

  par::gov::checkpoint_now();
  par::PhaseClock merge(sink, "alg1.merge");
  std::vector<geom::Contour> rings;
  std::int64_t k = 0;
  for (BeamResult& br : beams) {
    k += br.intersections;
    for (geom::Contour& r : br.rings) rings.push_back(std::move(r));
  }
  const auto partials = static_cast<std::int64_t>(rings.size());
  const LineVertices on_lines = vertices_on_lines(bt, part.ys);
  geom::PolygonSet out = weld_seams(pool, rings, part.ys, &on_lines);
  merge.span().arg("partial_polys", partials);
  const double t_merge = merge.stop().wall;

  if (sink) {
    request.span().arg("edges", static_cast<std::int64_t>(bt.num_edges()));
    request.span().arg("intersections", k);
    request.span().arg("op", static_cast<std::int64_t>(op));
    sink->add_counter("alg1.requests", 1);
    sink->add_counter("alg1.scanbeams", static_cast<std::int64_t>(m));
    sink->add_counter("alg1.intersections", k);
    sink->observe("alg1.request_seconds", request.stop().wall);
  }

  if (stats) {
    stats->edges = static_cast<std::int64_t>(bt.num_edges());
    stats->scanbeams = static_cast<std::int64_t>(m);
    stats->k_prime = part.k_prime(bt.num_edges());
    stats->intersections = k;
    stats->partial_polys = partials;
    stats->t_sort_partition = t_partition;
    stats->t_beams = t_beams;
    stats->t_merge = t_merge;
  }
  return out;
}

}  // namespace psclip::core
