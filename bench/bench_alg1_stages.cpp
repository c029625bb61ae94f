// Algorithm 1 stage analysis (paper §III-E): per-stage times and the
// output-sensitivity counters n, m, k, k'. The interesting property is
// that total work tracks n + k + k' — the quantity the PRAM bound is
// expressed in — rather than n^2.
//
// The process exits nonzero, which is what CI gates on, if any run's
// output does not have seq::vatti_clip's normalized ring set (same rings,
// any order, any start vertex). That check is deterministic; the timings
// are informational.

#include <cstdio>

#include "bench_util.hpp"
#include "core/algorithm1.hpp"
#include "data/synthetic.hpp"
#include "seq/vatti.hpp"
#include "test_support.hpp"

int main() {
  using namespace psclip;
  bench::header("Algorithm 1 — stage times and output-sensitivity counters",
                "paper §III-E analysis");

  par::ThreadPool pool;
  std::printf("%8s %8s %8s %8s %10s | %10s %10s %10s %12s | %6s\n", "n", "m",
              "k", "k'", "n+k+k'", "sort+part", "beams(ms)", "merge(ms)",
              "us/(n+k+k')", "rings");
  bool rings_ok = true;
  for (int edges : {500, 1000, 2000, 4000, 8000, 16000}) {
    const auto pair = data::synthetic_pair(41, edges);
    const geom::BoolOp op = geom::BoolOp::kIntersection;
    core::Alg1Stats st;
    geom::PolygonSet out;
    const double sec = bench::time_median3([&] {
      st = {};
      out = core::scanbeam_clip(pair.subject, pair.clip, op, pool, &st);
    });
    const bool same = test::normalized_rings(out) ==
                      test::normalized_rings(
                          seq::vatti_clip(pair.subject, pair.clip, op));
    rings_ok = rings_ok && same;
    const double nkk = static_cast<double>(st.edges + st.intersections +
                                           st.k_prime);
    std::printf(
        "%8lld %8lld %8lld %8lld %10.0f | %10.3f %10.3f %10.3f %12.3f | %6s\n",
        static_cast<long long>(st.edges), static_cast<long long>(st.scanbeams),
        static_cast<long long>(st.intersections),
        static_cast<long long>(st.k_prime), nkk, st.t_sort_partition * 1e3,
        st.t_beams * 1e3, st.t_merge * 1e3, sec * 1e6 / nkk,
        same ? "vatti" : "DIFFER");
  }
  std::printf("\nflat us/(n+k+k') = the output-sensitive work bound in "
              "action (one-phase weld merge, segment-tree partition).\n");
  if (!rings_ok) {
    std::printf("FAIL: Algorithm 1's rings differ from vatti_clip's\n");
    return 1;
  }
  return 0;
}
