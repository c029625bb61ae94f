// Microbenchmark + CI gate for the Vatti sweep kernel.
//
// Runs the sequential sweep on two sweep-dominated workloads — the
// polygon_field x2 overlay (union and intersection) and Fig. 9's 24k-edge
// synthetic pair (intersection) — and on service_mix's small mix (64
// pairs of 100-1000 edges under all four operators, each clip on the
// thread's reused scratch, the way psclip::clip runs them).
//
// Gates (process exits nonzero on violation — CI runs this binary):
//   * byte identity: every measured output's digest equals its entry in
//     the golden digest table (tests/data/golden_digests.txt);
//   * an output-sensitive beam top: VattiStats::top_visits <= 1.1 x
//     VattiStats::edges on both large workloads, where a walk over the
//     AET would visit aet_visits slots;
//   * an output-sensitive sweep: VattiStats::x_evals, the x positions the
//     sweep evaluated, <= kMaxEvalsPerEvent x (edges + intersections) on
//     both large workloads. A sweep that evaluated every active edge on
//     every scanline would make aet_visits evaluations (18.01M on
//     field4000, 14.08M on pair24k, against 102k and 60k events);
//   * allocation-free small clips: over one warmed pass of the small mix,
//     the heap allocations (operator new calls, counted by this binary's
//     replacement operator new) per clip <= the result's contours per
//     clip + kMaxExtraAllocsPerOp. A warmed sweep allocates only its
//     result: the contour array and one vertex array per contour.
// All four are deterministic, so runner timing noise cannot flip them.
// The timings — ms per sweep, ns per edge-beam visit (aet_visits) and us
// per small op — are informational.
//
// With --json <path>, the measurements are mirrored into a
// schema_version-stamped report.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "data/synthetic.hpp"
#include "geom/polygon.hpp"
#include "golden_digests.hpp"
#include "seq/vatti.hpp"

namespace {

/// operator new calls made by this process so far.
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace psclip;

/// The beam top's visits may exceed the edges that end only by the rare
/// non-partner slots of local-maximum partner scans.
constexpr double kMaxTopVisitsPerEdge = 1.1;

/// x evaluations per event (edge or crossing). Measured: 1.24 on
/// field4000 (both operators) and 2.90 on pair24k; the gate allows twice
/// the larger.
constexpr double kMaxEvalsPerEvent = 5.8;

/// Heap allocations per small clip beyond its result's contours: the
/// result's contour array, plus headroom for a thread's first-time
/// capacity growth that a longer clip in the mix triggers late.
constexpr double kMaxExtraAllocsPerOp = 8.0;

struct Workload {
  const char* name;  ///< golden table input name
  geom::PolygonSet a, b;
  std::vector<geom::BoolOp> ops;
};

}  // namespace

int main(int argc, char** argv) {
  bench::header("Sweep kernel — order certificates, output-sensitive beams",
                "paper §III-D per-slab cost model; DESIGN.md §9");

  // Fixed workloads, independent of PSCLIP_BENCH_SCALE: the digests in the
  // golden table are for exactly these inputs.
  std::vector<Workload> workloads;
  workloads.push_back({"field4000", data::polygon_field(9001, 4000, 100.0, 12),
                       data::polygon_field(9002, 4000, 100.0, 10),
                       {geom::BoolOp::kUnion, geom::BoolOp::kIntersection}});
  {
    auto pair = data::synthetic_pair(7919, 24000);
    workloads.push_back({"pair24k", std::move(pair.subject),
                         std::move(pair.clip),
                         {geom::BoolOp::kIntersection}});
  }
  if (golden::table().empty()) {
    std::fprintf(stderr, "FAIL: cannot read the golden digests at %s\n",
                 PSCLIP_GOLDEN_DIGESTS);
    return 1;
  }

  bench::JsonReport report;
  report.field("bench", std::string("vatti_sweep"));
  report.field("gate_max_top_visits_per_edge", kMaxTopVisitsPerEdge);
  report.field("gate_max_x_evals_per_event", kMaxEvalsPerEvent);

  std::printf("%10s %6s | %9s %10s %9s %6s %10s %9s %8s | %6s\n",
              "workload", "op", "ms", "aet_visits", "x_evals", "/event",
              "top_visits", "edges", "ns/visit", "digest");
  bool gate_ok = true;
  for (const Workload& w : workloads) {
    for (const geom::BoolOp op : w.ops) {
      // Scratch reused across the timed runs, as a slab-arena worker would;
      // stats come from a separate untimed run.
      seq::VattiScratch scratch;
      geom::PolygonSet out;
      const double t = bench::time_median3(
          [&] { out = seq::vatti_clip(w.a, w.b, op, nullptr, &scratch); });
      seq::VattiStats st;
      (void)seq::vatti_clip(w.a, w.b, op, &st, &scratch);

      const std::string key = golden::key(w.name, op, "vatti");
      const bool digest_ok =
          golden::expected(key) == golden::output_digest(out);
      const bool top_ok = static_cast<double>(st.top_visits) <=
                          kMaxTopVisitsPerEdge * static_cast<double>(st.edges);
      const double events =
          static_cast<double>(st.edges) + static_cast<double>(st.intersections);
      const double evals_per_event =
          static_cast<double>(st.x_evals) / std::max(events, 1.0);
      const bool evals_ok = evals_per_event <= kMaxEvalsPerEvent;
      const double ns_per_visit =
          st.aet_visits > 0 ? t * 1e9 / static_cast<double>(st.aet_visits)
                            : 0.0;
      std::printf(
          "%10s %6s | %9.2f %10lld %9lld %6.2f %10lld %9lld %8.3f | %6s\n",
          w.name, geom::to_string(op), t * 1e3,
          static_cast<long long>(st.aet_visits),
          static_cast<long long>(st.x_evals), evals_per_event,
          static_cast<long long>(st.top_visits),
          static_cast<long long>(st.edges), ns_per_visit,
          digest_ok ? "match" : "DIFF");

      report.row("sweeps");
      report.cell("workload", std::string(w.name));
      report.cell("op", std::string(geom::to_string(op)));
      report.cell("ms", t * 1e3);
      report.cell("ns_per_visit", ns_per_visit);
      report.cell("scanbeams", static_cast<long long>(st.scanbeams));
      report.cell("aet_visits", static_cast<long long>(st.aet_visits));
      report.cell("x_evals", static_cast<long long>(st.x_evals));
      report.cell("x_evals_per_event", evals_per_event);
      report.cell("top_visits", static_cast<long long>(st.top_visits));
      report.cell("edges", static_cast<long long>(st.edges));
      report.cell("sorted_beams", static_cast<long long>(st.sorted_beams));
      report.cell("intersections", static_cast<long long>(st.intersections));
      report.cell("max_aet", static_cast<long long>(st.max_aet));
      report.cell("digest_match", static_cast<long long>(digest_ok ? 1 : 0));

      if (!digest_ok) {
        std::fprintf(stderr, "FAIL: %s differs from the golden digest\n",
                     key.c_str());
        gate_ok = false;
      }
      if (!evals_ok) {
        std::fprintf(stderr,
                     "FAIL: %s x_evals %lld > %.1f x (edges + intersections) "
                     "%.0f\n",
                     key.c_str(), static_cast<long long>(st.x_evals),
                     kMaxEvalsPerEvent, events);
        gate_ok = false;
      }
      if (!top_ok) {
        std::fprintf(stderr,
                     "FAIL: %s top_visits %lld > %.1f x edges %lld\n",
                     key.c_str(), static_cast<long long>(st.top_visits),
                     kMaxTopVisitsPerEdge, static_cast<long long>(st.edges));
        gate_ok = false;
      }
    }
  }

  // service_mix's small class: pairs of 50-500 edges per side, every
  // operator, each clip on the thread's reused scratch.
  std::vector<data::SyntheticPair> small;
  for (int i = 0; i < 64; ++i)
    small.push_back(data::synthetic_pair(1000 + i, 50 + 450 * i / 63));
  const double ops = static_cast<double>(small.size() * 4);
  const double t_small = bench::time_median3([&] {
    for (const auto& p : small)
      for (const geom::BoolOp op : geom::kAllOps)
        (void)seq::vatti_clip(p.subject, p.clip, op);
  });
  const double us_per_op = t_small * 1e6 / ops;
  // One more pass, warmed by the timed ones, counting allocations.
  std::size_t contours = 0;
  const std::uint64_t allocs_before = g_allocs.load();
  for (const auto& p : small)
    for (const geom::BoolOp op : geom::kAllOps)
      contours += seq::vatti_clip(p.subject, p.clip, op).num_contours();
  const double allocs_per_op =
      static_cast<double>(g_allocs.load() - allocs_before) / ops;
  const double contours_per_op = static_cast<double>(contours) / ops;
  const bool allocs_ok =
      allocs_per_op <= contours_per_op + kMaxExtraAllocsPerOp;
  std::printf(
      "\nsmall mix (64 pairs x 4 ops): %.1f us/op, %.1f allocations/op for "
      "%.1f result contours/op\n",
      us_per_op, allocs_per_op, contours_per_op);
  report.field("gate_max_extra_allocs_per_op", kMaxExtraAllocsPerOp);
  report.field("small_mix_us_per_op", us_per_op);
  report.field("small_mix_allocs_per_op", allocs_per_op);
  report.field("small_mix_result_contours_per_op", contours_per_op);
  if (!allocs_ok) {
    std::fprintf(stderr,
                 "FAIL: small mix makes %.1f allocations per clip > %.1f "
                 "result contours + %.0f\n",
                 allocs_per_op, contours_per_op, kMaxExtraAllocsPerOp);
    gate_ok = false;
  }
  report.field("gate_ok", static_cast<long long>(gate_ok ? 1 : 0));

  if (const char* path = bench::json_path(argc, argv)) {
    if (!report.write_file(path)) return 1;
    std::printf("\nwrote %s\n", path);
  }
  return gate_ok ? 0 : 1;
}
