// Microbenchmark + CI gate for the request-governance layer (DESIGN.md §11).
//
// The gated quantity is the *per-scanbeam checkpoint cost* inside the Vatti
// sweep — the only governance site on a per-element hot path (phase
// boundaries and slab entries are O(slabs), noise). It is measured on the
// sequential sweep (seq::vatti_clip), where scheduler jitter cannot pollute
// the signal, twice per rep:
//   * baseline — no token installed (each checkpoint is one thread-local
//     null test);
//   * governed — a gov::ScopedToken with a generous deadline and memory
//     budget installed, so every per-beam checkpoint does its full work
//     (cancel + budget flags every beam, amortized clock reads, quantized
//     output-growth charges) but never trips.
//
// The gate statistic is the ratio of *minimum* CPU times over the reps:
// co-tenant interference only ever adds CPU cycles (cache eviction,
// frequency dips), so the minimum of N runs converges on the undisturbed
// cost from above — the one statistic that stays stable on a shared host
// where even medians of CPU time wander by several percent.
//
// Gates (process exits nonzero on violation — CI runs this binary):
//   * byte-identical output between baseline and governed runs per op,
//     sequential and parallel;
//   * min-CPU overhead <= 1% by default (override with
//     PSCLIP_GOVERNANCE_GATE=<fraction>, e.g. 0.05 for a noisy CI host).
//
// The parallel mt::slab_clip overlay is also measured and reported
// (rows "slab_parallel") for visibility, but not gated: its run-to-run
// scheduler variance on shared CI hosts is an order of magnitude above the
// 1% bar, so gating it would only measure the host.
//
// With --json <path>, the measurements are mirrored into a
// schema_version-stamped report (BENCH_governance.json).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "data/synthetic.hpp"
#include "geom/polygon.hpp"
#include "mt/algorithm2.hpp"
#include "parallel/cancel.hpp"
#include "parallel/timing.hpp"
#include "seq/vatti.hpp"

namespace {

bool identical(const psclip::geom::PolygonSet& a,
               const psclip::geom::PolygonSet& b) {
  if (a.num_contours() != b.num_contours()) return false;
  for (std::size_t i = 0; i < a.contours.size(); ++i) {
    if (a.contours[i].pts.size() != b.contours[i].pts.size()) return false;
    for (std::size_t j = 0; j < a.contours[i].pts.size(); ++j)
      if (a.contours[i].pts[j].x != b.contours[i].pts[j].x ||
          a.contours[i].pts[j].y != b.contours[i].pts[j].y)
        return false;
  }
  return true;
}

/// Maximum relative slowdown of the governed run the gate accepts. The
/// acceptance bar is 0.01 (1%); PSCLIP_GOVERNANCE_GATE overrides it.
double max_overhead() {
  if (const char* s = std::getenv("PSCLIP_GOVERNANCE_GATE")) {
    const double v = std::atof(s);
    if (v > 0) return v;
  }
  return 0.01;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double minimum(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psclip;
  bench::header("Governance overhead — enabled-but-untriggered vs none",
                "DESIGN.md §11 request governance");

  constexpr int kContours = 1000;
  constexpr int kReps = 51;  // paired timings; short runs, min converges
  const geom::PolygonSet subject =
      data::polygon_field(9001, kContours, 100.0, 12);
  const geom::PolygonSet clip = data::polygon_field(9002, kContours, 100.0, 10);
  const auto total_verts =
      static_cast<long long>(subject.num_vertices() + clip.num_vertices());
  std::printf("workload: 2 x polygon_field(%d contours), %lld vertices\n",
              kContours, total_verts);
  std::printf("gate: governed min-CPU <= %.1f%% over baseline min-CPU\n\n",
              max_overhead() * 100.0);

  par::ThreadPool& pool = par::default_pool();

  // Generous-but-real limits: the run must stay far from both (a trip would
  // change what is being measured), while every checkpoint still reads the
  // clock stride and every charge still hits the budget atomics.
  auto governed_token = [] {
    par::CancelToken t = par::CancelToken::with_deadline(
        par::Deadline::in_ms(60 * 60 * 1000));  // 1 hour
    t.set_budget(std::make_shared<par::ResourceBudget>(1ull << 40));  // 1 TiB
    return t;
  };
  auto governed_opts = [&] {
    mt::Alg2Options o;
    o.cancel = governed_token();
    return o;
  };

  bench::JsonReport report;
  report.field("bench", std::string("governance_overhead"));
  report.field("workload", std::string("polygon_field x2"));
  report.field("contours_per_layer", static_cast<long long>(kContours));
  report.field("total_vertices", total_verts);
  report.field("pool_threads", static_cast<long long>(pool.size()));
  report.field("reps", static_cast<long long>(kReps));
  report.field("gate_max_overhead", max_overhead());

  // ---- Gated section: per-scanbeam checkpoint cost, sequential sweep. ----
  std::printf("sequential sweep (gated):\n");
  std::printf("%12s | %13s %13s %9s\n", "op", "baseline (ms)", "governed (ms)",
              "overhead");
  bool gate_ok = true;
  double worst_overhead = 0.0;
  for (const geom::BoolOp op :
       {geom::BoolOp::kUnion, geom::BoolOp::kIntersection}) {
    // Scratch reused across runs, as a thread's sweep scratch is; the
    // token is created once and installed/removed around each governed
    // run.
    seq::VattiScratch scratch;
    const par::CancelToken tok = governed_token();
    geom::PolygonSet out_base, out_gov;
    // Warm-up: grow the scratch and fault in the inputs so neither timed
    // side pays first-touch costs.
    out_base = seq::vatti_clip(subject, clip, op, nullptr, &scratch);
    {
      par::gov::ScopedToken scope(tok);
      out_gov = seq::vatti_clip(subject, clip, op, nullptr, &scratch);
    }
    if (!identical(out_base, out_gov)) {
      std::fprintf(stderr,
                   "FAIL: governed sweep output differs from baseline "
                   "(op %s)\n",
                   geom::to_string(op));
      return 1;
    }

    // Thread-CPU clock, not wall: a timeshared host deschedules the sweep
    // at random, and those gaps would swamp a 1% signal (the same artifact
    // schema 3 fixed in the phase timings). CPU time charges only cycles
    // the sweep actually ran — exactly where checkpoint cost lands.
    std::vector<double> base_s, gov_s;
    for (int rep = 0; rep < kReps; ++rep) {
      {
        par::ThreadCpuTimer t;
        out_base = seq::vatti_clip(subject, clip, op, nullptr, &scratch);
        base_s.push_back(t.seconds());
      }
      {
        par::gov::ScopedToken scope(tok);
        par::ThreadCpuTimer t;
        out_gov = seq::vatti_clip(subject, clip, op, nullptr, &scratch);
        gov_s.push_back(t.seconds());
      }
    }
    const double min_base = minimum(base_s);
    const double min_gov = minimum(gov_s);
    const double overhead = min_base > 0 ? min_gov / min_base - 1.0 : 0.0;
    worst_overhead = std::max(worst_overhead, overhead);
    if (overhead > max_overhead()) gate_ok = false;
    std::printf("%12s | %13.3f %13.3f %8.2f%%\n", geom::to_string(op),
                min_base * 1e3, min_gov * 1e3, overhead * 100.0);

    report.row("seq_sweep");
    report.cell("op", std::string(geom::to_string(op)));
    report.cell("baseline_min_cpu_ms", min_base * 1e3);
    report.cell("governed_min_cpu_ms", min_gov * 1e3);
    report.cell("baseline_median_cpu_ms", median(base_s) * 1e3);
    report.cell("governed_median_cpu_ms", median(gov_s) * 1e3);
    report.cell("overhead", overhead);
  }

  // ---- Informational section: the full parallel overlay. ----
  std::printf("\nparallel slab_clip (informational, not gated):\n");
  std::printf("%12s | %13s %13s %9s\n", "op", "baseline (ms)", "governed (ms)",
              "overhead");
  for (const geom::BoolOp op :
       {geom::BoolOp::kUnion, geom::BoolOp::kIntersection}) {
    geom::PolygonSet out_base, out_gov;
    out_base = mt::slab_clip(subject, clip, op, pool);
    {
      const mt::Alg2Options opts = governed_opts();
      out_gov = mt::slab_clip(subject, clip, op, pool, opts);
    }
    if (!identical(out_base, out_gov)) {
      std::fprintf(stderr,
                   "FAIL: governed slab_clip output differs from baseline "
                   "(op %s)\n",
                   geom::to_string(op));
      return 1;
    }
    std::vector<double> base_s, gov_s, ratios;
    for (int rep = 0; rep < 3; ++rep) {
      double b, g;
      {
        par::WallTimer t;
        out_base = mt::slab_clip(subject, clip, op, pool);
        b = t.seconds();
      }
      {
        const mt::Alg2Options opts = governed_opts();
        par::WallTimer t;
        out_gov = mt::slab_clip(subject, clip, op, pool, opts);
        g = t.seconds();
      }
      base_s.push_back(b);
      gov_s.push_back(g);
      if (b > 0) ratios.push_back(g / b);
    }
    const double med_base = median(base_s);
    const double med_gov = median(gov_s);
    const double overhead = ratios.empty() ? 0.0 : median(ratios) - 1.0;
    std::printf("%12s | %13.3f %13.3f %8.2f%%\n", geom::to_string(op),
                med_base * 1e3, med_gov * 1e3, overhead * 100.0);

    report.row("slab_parallel");
    report.cell("op", std::string(geom::to_string(op)));
    report.cell("baseline_ms", med_base * 1e3);
    report.cell("governed_ms", med_gov * 1e3);
    report.cell("overhead", overhead);
  }
  report.field("worst_overhead", worst_overhead);
  report.field("gate_ok", static_cast<long long>(gate_ok ? 1 : 0));

  if (const char* path = bench::json_path(argc, argv)) {
    if (!report.write_file(path)) return 1;
    std::printf("\nJSON report written to %s\n", path);
  }

  if (!gate_ok) {
    std::fprintf(stderr,
                 "FAIL: governance overhead %.2f%% exceeds the %.2f%% gate "
                 "(PSCLIP_GOVERNANCE_GATE overrides)\n",
                 worst_overhead * 100.0, max_overhead() * 100.0);
    return 1;
  }
  std::printf("\ngate OK: worst overhead %.2f%% <= %.2f%%\n",
              worst_overhead * 100.0, max_overhead() * 100.0);
  return 0;
}
