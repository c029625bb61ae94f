// Slab-clip CPU scaling gate.
//
// The question: when the same request is cut into p slabs instead of 1, how
// much *extra CPU* does the clip phase burn? Once every slab re-derived the
// Vatti sweep structures from rectangle-clipped inputs, and slabbing
// inflated clip CPU by ~2x. slab_clip now prepares every contour once into
// one shared bound table and sweeps each slab's window of it
// (seq::vatti_sweep_window), so a slab's cost is what it sweeps plus its
// seed edges at the bottom line.
//
// Gates (exit nonzero on violation, what CI's perf-smoke keys on):
//   1. inflation: clip_cpu(slabs=p) / clip_cpu(slabs=1) <= GATE for
//      p in {4, 8, 16}. GATE defaults to 1.30 and can be overridden with
//      PSCLIP_SCALING_GATE=<float> (CI relaxes it on tiny runners).
//   2. wall win: at p ~ hardware cores, slab_clip wall time must beat the
//      single-slab run. Skipped on hosts with <= 2 hardware threads, where
//      there is no parallelism to win with.
//
// clip_cpu is the thread-CPU-clock per-slab sum (see SlabLoad::cpu_seconds)
// — wall timers inside slab tasks double-charge descheduled time, which is
// exactly the measurement artifact the old "2x inflation" reports mixed in
// with the real re-derivation cost.
//
// With --json <path>, the sweep is mirrored to a schema-3 report
// (BENCH_scaling.json in CI and in the repo).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench_util.hpp"
#include "data/synthetic.hpp"
#include "geom/bool_op.hpp"
#include "mt/algorithm2.hpp"
#include "parallel/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace psclip;
  bench::header("Slab-clip CPU scaling: slab-cut inflation gate",
                "Alg 2 Steps 4-6, output-sensitive per-slab setup");

  double gate = 1.30;
  if (const char* s = std::getenv("PSCLIP_SCALING_GATE")) {
    const double v = std::atof(s);
    if (v > 0) gate = v;
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  par::ThreadPool pool;
  // Floor of 400 contours (~8.8k vertices): below that, fixed per-slab
  // costs (arena borrow, schedule slice, AET setup) dominate the numerator
  // and the ratio measures overhead amortization, not re-derivation work —
  // the thing this gate exists to bound.
  const int field_count =
      std::max(400, static_cast<int>(4000 * bench::dataset_scale()));
  const geom::PolygonSet subject =
      data::polygon_field(9001, field_count, 100.0, 12);
  const geom::PolygonSet clip =
      data::polygon_field(9002, field_count, 100.0, 10);
  const auto total_verts =
      static_cast<long long>(subject.num_vertices() + clip.num_vertices());
  std::printf(
      "workload: 2 x polygon_field(%d contours), %lld vertices; "
      "gate %.2fx, %u hw threads, pool %u\n\n",
      field_count, total_verts, gate, hw, pool.size());
  std::printf("%6s | %12s %12s %10s | %12s %12s\n", "slabs", "clip_cpu(ms)",
              "part_cpu(ms)", "inflation", "wall (ms)", "touched");

  bench::JsonReport report;
  report.field("bench", std::string("slab_scaling"));
  report.field("workload", std::string("polygon_field x2"));
  report.field("contours_per_layer", static_cast<long long>(field_count));
  report.field("total_vertices", total_verts);
  report.field("pool_threads", static_cast<long long>(pool.size()));
  report.field("gate", gate);

  bool gate_ok = true;
  double cpu_base = 0.0, wall_base = 0.0;
  for (const unsigned slabs : {1u, 4u, 8u, 16u}) {
    mt::Alg2Options o;
    o.slabs = slabs;
    mt::Alg2Stats st;
    geom::PolygonSet r;
    const double wall = bench::time_median3([&] {
      r = mt::slab_clip(subject, clip, geom::BoolOp::kUnion, pool, o, &st);
    });
    (void)r;

    long long touched = 0;
    for (const auto& sl : st.slabs) touched += sl.touched_edges;
    const double clip_cpu = st.phases.clip_cpu;
    if (slabs == 1) {
      cpu_base = clip_cpu;
      wall_base = wall;
    }
    const double inflation = cpu_base > 0.0 ? clip_cpu / cpu_base : 1.0;
    std::printf("%6u | %12.3f %12.3f %10.3f | %12.3f %12lld\n", slabs,
                clip_cpu * 1e3, st.phases.partition_cpu * 1e3, inflation,
                wall * 1e3, touched);

    report.row("scaling");
    report.cell("slabs", static_cast<long long>(slabs));
    report.cell("clip_cpu_ms", clip_cpu * 1e3);
    report.cell("partition_cpu_ms", st.phases.partition_cpu * 1e3);
    report.cell("inflation", inflation);
    report.cell("wall_ms", wall * 1e3);
    report.cell("touched_edges", touched);

    if (slabs > 1 && inflation > gate) {
      std::fprintf(stderr,
                   "FAIL: clip CPU inflation %.3fx at %u slabs exceeds the "
                   "%.2fx gate\n",
                   inflation, slabs, gate);
      gate_ok = false;
    }
    // Wall win at roughly the core count: pick the sweep point closest to
    // the host's hardware concurrency (>= 2 cores only — a serial host
    // has nothing to win with).
    if (hw > 2 && slabs > 1 &&
        (slabs >= hw || slabs * 2 > hw) && slabs <= hw * 2) {
      if (wall >= wall_base) {
        std::fprintf(stderr,
                     "FAIL: wall %.3f ms at %u slabs does not beat the "
                     "single-slab %.3f ms on a %u-thread host\n",
                     wall * 1e3, slabs, wall_base * 1e3, hw);
        gate_ok = false;
      }
    }
  }
  report.field("gate_ok", static_cast<long long>(gate_ok ? 1 : 0));

  if (const char* path = bench::json_path(argc, argv)) {
    if (!report.write_file(path)) return 1;
    std::printf("\nwrote %s\n", path);
  }
  return gate_ok ? 0 : 1;
}
