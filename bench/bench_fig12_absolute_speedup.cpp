// Fig. 12: absolute speedup of the multi-threaded clipper against the
// best sequential baseline. The paper's baseline is ArcGIS 10 (closed
// source; it reports 110 s for Intersect(3,4), 135 s for Union(3,4) and
// 28 s for Intersect(1,2) at full scale, and ~30x/27x/3.4x speedups). Our
// baseline substitution (DESIGN.md §3) is the whole-dataset single-sweep
// Vatti run, i.e. the best sequential time this library can produce.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "data/gis_sim.hpp"
#include "mt/algorithm2.hpp"
#include "paper_replicate.hpp"
#include "seq/vatti.hpp"

int main() {
  using namespace psclip;
  const double scale = bench::dataset_scale();
  bench::header("Fig. 12 — absolute speedup vs sequential baseline",
                "paper Fig. 12");
  std::printf("dataset scale = %g; baseline = sequential Vatti sweep over "
              "the whole dataset (ArcGIS substitute)\n\n",
              scale);

  const auto d1 = data::make_dataset(1, scale);
  const auto d2 = data::make_dataset(2, scale);
  const auto d3 = data::make_dataset(3, scale);
  const auto d4 = data::make_dataset(4, scale);

  struct Job {
    const char* name;
    const geom::PolygonSet* a;
    const geom::PolygonSet* b;
    geom::BoolOp op;
    // The paper's replicate-and-dedup scheme (paper_replicate.hpp) instead
    // of slab_clip: approximate for union.
    bool paper_scheme;
    double paper_arcgis_seconds;
    double paper_speedup;
  };
  const Job jobs[] = {
      {"Intersect(3,4)", &d3, &d4, geom::BoolOp::kIntersection, false, 110.0,
       30.0},
      {"Union(3,4)", &d3, &d4, geom::BoolOp::kUnion, false, 135.0, 27.0},
      {"Union(3,4)", &d3, &d4, geom::BoolOp::kUnion, true, 135.0, 27.0},
      {"Intersect(1,2)", &d1, &d2, geom::BoolOp::kIntersection, false, 28.0,
       3.4},
  };

  const unsigned threads = bench::thread_ladder().back();
  std::printf("%-16s %14s %14s %10s %12s | %18s\n", "operation", "seq (ms)",
              "parallel (ms)", "speedup", "ideal-spdup",
              "paper (64 cores)");
  for (const auto& job : jobs) {
    geom::PolygonSet seq_result;
    const double seq_sec = bench::time_median3(
        [&] { seq_result = seq::vatti_clip(*job.a, *job.b, job.op); });
    par::ThreadPool pool(threads);
    mt::Alg2Options o;
    o.slabs = threads;  // the paper's one slab per thread
    mt::Alg2Stats st;
    const auto run = [&](par::ThreadPool& on) {
      return job.paper_scheme ? bench::replicate_clip(*job.a, *job.b, job.op,
                                                      on, threads, &st)
                              : mt::slab_clip(*job.a, *job.b, job.op, on, o,
                                              &st);
    };
    const double par_sec = bench::time_median3([&] { (void)run(pool); });
    // Decomposition metrics from a serialized run (see bench_fig8).
    par::ThreadPool serial(1);
    const geom::PolygonSet par_result = run(serial);
    const double area_dev =
        std::fabs(geom::signed_area(par_result) -
                  geom::signed_area(seq_result)) /
        (1.0 + std::fabs(geom::signed_area(seq_result)));
    double mx = 0.0;
    for (const auto& s : st.slabs) mx = std::max(mx, s.seconds);
    const double ideal = mx > 0.0 ? seq_sec / mx : 1.0;
    std::printf("%-16s %14.2f %14.2f %9.2fx %11.2fx | ArcGIS %.0fs, %4.1fx"
                "  (area dev %.1e, %s)\n",
                job.name, seq_sec * 1e3, par_sec * 1e3, seq_sec / par_sec,
                ideal, job.paper_arcgis_seconds, job.paper_speedup,
                area_dev,
                job.paper_scheme ? "paper scheme, approximate for union"
                                 : "slab_clip");
  }
  std::printf("\nHardware note: wall-clock speedups track the host's core "
              "count (%u threads swept here); the paper used a 64-core "
              "Opteron.\n",
              threads);
  return 0;
}
