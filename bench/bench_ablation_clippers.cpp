// Ablation: which sequential clipper Algorithm 2 should call, in two
// sections.
//
// 1. The paper's §IV choice for Steps 4-5: "we used Greiner-Hormann since
//    we found it to be faster than GPC for rectangular clipping". One
//    synthetic subject contour is clipped to a slab rectangle across its
//    middle by Greiner–Hormann (greiner_hormann.hpp, bench-local) and by
//    vatti_clip, GPC's stand-in.
// 2. The general engines head to head on synthetic pairs: Vatti scanline,
//    Martinez–Rueda (independent x-sweep) and Greiner–Hormann (simple
//    contours only).
//
// The process exits 1 if, on any input it times, Greiner–Hormann's even-odd
// area leaves boolean_area_oracle by more than 1e-9 relative, or a ring of
// its output crosses itself or another ring (ring_crossings: the area
// cannot see how crossings were linked into rings).

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "data/synthetic.hpp"
#include "geom/area_oracle.hpp"
#include "greiner_hormann.hpp"
#include "seq/martinez.hpp"
#include "seq/vatti.hpp"

namespace {

using namespace psclip;

constexpr geom::BoolOp kInt = geom::BoolOp::kIntersection;
constexpr double kAreaTol = 1e-9;

/// Median-of-3 ms of the GH intersection of `s` and `c`. Clears `ok`, and
/// says so on stderr, if its even-odd area leaves the oracle's or its
/// rings cross.
double time_gh(const geom::Contour& s, const geom::Contour& c, bool& ok) {
  geom::PolygonSet out;
  const double t = bench::time_median3(
      [&] { out = bench::greiner_hormann(s, c, kInt); });
  geom::PolygonSet ps, pc;
  ps.contours.push_back(s);
  pc.contours.push_back(c);
  const double got = geom::even_odd_area(out);
  const double want = geom::boolean_area_oracle(ps, pc, kInt);
  if (std::fabs(got - want) > kAreaTol * std::fabs(want)) {
    std::fprintf(stderr,
                 "FAIL: GH area %.17g vs oracle %.17g (%zu + %zu vertices)\n",
                 got, want, s.size(), c.size());
    ok = false;
  }
  if (const std::size_t n = bench::ring_crossings(out); n > 0) {
    std::fprintf(stderr,
                 "FAIL: GH output has %zu ring crossings (%zu + %zu "
                 "vertices)\n",
                 n, s.size(), c.size());
    ok = false;
  }
  return t * 1e3;
}

double time_ms(const std::function<geom::PolygonSet()>& clip) {
  return 1e3 * bench::time_median3([&] {
    auto r = clip();
    benchmark::DoNotOptimize(r);
  });
}

void rect_clip_section(bool& ok) {
  bench::header("Ablation 1 — rectangle clipping: GH vs Vatti",
                "paper §IV (Steps 4-5 choice)");
  std::printf("%8s | %10s %10s   (ms per slab clip)\n", "edges", "GH",
              "Vatti");
  for (int edges : {1000, 4000, 16000}) {
    const auto pair = data::synthetic_pair(71, edges);
    const geom::BBox bb = geom::bounds(pair.subject);
    geom::PolygonSet slab;
    slab.contours.push_back(geom::make_rect(
        bb.xmin - 1, bb.ymin + 0.25 * bb.height(), bb.xmax + 1,
        bb.ymin + 0.55 * bb.height()));
    const double tg = time_gh(pair.subject.contours[0], slab.contours[0], ok);
    const double tv =
        time_ms([&] { return seq::vatti_clip(pair.subject, slab, kInt); });
    std::printf("%8d | %10.3f %10.3f\n", edges, tg, tv);
  }
}

void engines_section(bool& ok) {
  bench::header("Ablation 2 — sequential clippers: Vatti vs Martinez vs GH",
                "engine choice for Algorithm 2 Step 6");
  std::printf("%8s | %12s %12s %12s   (INT, ms)\n", "edges", "Vatti",
              "Martinez", "GH");
  for (int edges : {500, 2000, 8000}) {
    const auto pair = data::synthetic_pair(91, edges);
    const double tv =
        time_ms([&] { return seq::vatti_clip(pair.subject, pair.clip, kInt); });
    const double tm = time_ms(
        [&] { return seq::martinez_clip(pair.subject, pair.clip, kInt); });
    const double tg =
        time_gh(pair.subject.contours[0], pair.clip.contours[0], ok);
    std::printf("%8d | %12.3f %12.3f %12.3f\n", edges, tv, tm, tg);
  }
  std::printf("\n(GH is quadratic in its pairwise intersection phase but "
              "has no scanbeam machinery — the trade the paper observed "
              "for small rectangle clips.)\n");
}

}  // namespace

int main() {
  bool ok = true;
  rect_clip_section(ok);
  engines_section(ok);
  return ok ? 0 : 1;
}
