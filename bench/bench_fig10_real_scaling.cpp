// Fig. 10: scalability of intersection and union on the (simulated)
// real-world datasets versus thread count. The paper finds the larger
// datasets (3, 4) scale better than the smaller ones (1, 2).

#include <cstdio>

#include "bench_util.hpp"
#include "data/gis_sim.hpp"
#include "mt/algorithm2.hpp"
#include "paper_replicate.hpp"

int main() {
  using namespace psclip;
  const double scale = bench::dataset_scale();
  bench::header("Fig. 10 — scaling of INT/UNION on the GIS datasets",
                "paper Fig. 10");
  std::printf("dataset scale = %g\n", scale);

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
  };
  const Job jobs[] = {
      {"Intersect(1,2)", &d1, &d2, geom::BoolOp::kIntersection, false},
      {"Union(1,2)", &d1, &d2, geom::BoolOp::kUnion, false},
      {"Union(1,2) paper scheme, approximate for union", &d1, &d2,
       geom::BoolOp::kUnion, true},
      {"Intersect(3,4)", &d3, &d4, geom::BoolOp::kIntersection, false},
      {"Union(3,4)", &d3, &d4, geom::BoolOp::kUnion, false},
      {"Union(3,4) paper scheme, approximate for union", &d3, &d4,
       geom::BoolOp::kUnion, true},
  };

  for (const auto& job : jobs) {
    std::printf("\n%s  (A: %zu polys/%zu edges, B: %zu polys/%zu edges)\n",
                job.name, job.a->num_contours(), job.a->num_vertices(),
                job.b->num_contours(), job.b->num_vertices());
    std::printf("%8s %12s %10s %12s %12s %12s\n", "threads", "time (ms)",
                "speedup", "ideal-spdup", "out polys", "imbalance");
    double base = 0.0;
    for (unsigned t : bench::thread_ladder()) {
      par::ThreadPool pool(t);
      mt::Alg2Options o;
      o.slabs = t;  // the paper's one slab per thread
      mt::Alg2Stats st;
      const auto run = [&](par::ThreadPool& on) {
        return job.paper_scheme
                   ? bench::replicate_clip(*job.a, *job.b, job.op, on, t, &st)
                   : mt::slab_clip(*job.a, *job.b, job.op, on, o, &st);
      };
      const double sec = bench::time_median3([&] { (void)run(pool); });
      // Decomposition metrics from a serialized run (see bench_fig8).
      par::ThreadPool serial(1);
      (void)run(serial);
      if (base == 0.0) base = sec;
      std::printf("%8u %12.3f %9.2fx %11.2fx %12lld %12.2f\n", t, sec * 1e3,
                  base / sec, st.ideal_speedup(),
                  static_cast<long long>(st.output_contours),
                  st.load_imbalance());
    }
  }
  return 0;
}
