// Ablation: the two partitioning layers.
//
// Section 1 — Algorithm 1 Step 2 edge partitioning: the paper's cover-list
// segment tree (two-phase count/report, §III-E, core::partition_scanbeams)
// versus direct per-edge binning (the baseline below, kept in this bench
// only). Both are output-sensitive in k'; the segment tree bounds the
// *per-item* work by O(log m) while direct binning pays O(beams spanned).
//
// Section 2 — Algorithm 2 Steps 4-5 slab partitioning: the slab cut
// (mt::SlabIndex) reads, per slab line, only the bound edges crossing it
// (the seeds of the slab above) plus the edges its binary searches along
// the chains probe to find them. The paper's formulation rectangle-clipped
// both whole inputs per slab, O(p·n). `touched` sums SlabLoad::
// touched_edges (seeds + probes) — a deterministic, machine-noise-free
// measure. With --json <path>, section 2 is mirrored to a machine-readable
// report. The process exits nonzero, which is what CI gates on, if at
// p in {4, 16, 64} slabs the cut reads more than 1.3x the edges a one-slab
// run reads (every table edge once), or if the area leaves 1e-12
// (relative) of seq::vatti_clip's.
//
// Section 3 — the prologue split: slab_clip's setup steps (prepare,
// table, sort_minima, schedule, index) at pool sizes 1 / 2 / 4,
// each step's wall and CPU on every thread read from the spans slab_clip
// emits. Also mirrored to the JSON report ("prologue" rows). Beside it,
// the minor page faults of warmed slab_clip calls of the 24k-edge pair
// (measured first, in a fresh process): the prologue's (the alg2.setup
// span's "minor_faults" arg) and the whole call's, and the heap bytes the
// call allocates. The process also exits nonzero when the prologue's mean
// faults per call exceed kGateSetupMinfltPerOp or the call's mean heap
// bytes kGateHeapMbPerOp.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <cstdlib>
#include <iterator>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/scanbeam.hpp"
#include "data/synthetic.hpp"
#include "geom/wkt.hpp"
#include "mt/algorithm2.hpp"
#include "obs/recorder.hpp"
#include "seq/vatti.hpp"

namespace {

/// Bytes operator new has handed out in this process so far.
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n) {
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
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

/// Most minor page faults a warmed slab_clip of Fig. 9's pair may take in
/// its prologue (Steps 1–5), as a mean per call. Before the retained setup
/// slot every call faulted ~1,230 pages into fresh fragment, table and
/// index buffers. With the slot the prologue's mean is 16-20 per call on a
/// 4-vCPU host: most calls fault 0-5 pages, and one in five or six ~100,
/// when the slab index's per-call buffers (~35-50 pages) and
/// prepare_contour's temporaries (~58) land on fresh pages. The bound
/// leaves 3x headroom over that mean, and is half of a tenth of the old
/// figure.
constexpr double kGateSetupMinfltPerOp = 60;

/// Most heap bytes (operator new, this binary's counter) the same warmed
/// call may allocate, in MB. Whether freed buffers fault again depends on
/// glibc's state (its mmap threshold moves with what the process freed),
/// so a per-call prologue can fault only a few pages in some processes;
/// the bytes it allocates do not depend on that. On a 4-thread pool a call
/// allocates 5.5 MB (the slab index, the slab outputs, the weld and the
/// result); with its prologue in fresh buffers it allocated 13.2 MB.
constexpr double kGateHeapMbPerOp = 8;

/// Step 2 by direct binning: each edge walks its beam range, once to count
/// and once to report, with one atomic counter per beam. Same CSR
/// contents as core::partition_scanbeams up to per-beam order.
core::ScanbeamPartition partition_direct(par::ThreadPool& pool,
                                         const seq::BoundTable& bt,
                                         std::vector<double> ys) {
  core::ScanbeamPartition part;
  part.ys = std::move(ys);
  const std::size_t m = part.num_beams();
  part.offsets.assign(m + 1, 0);
  if (m == 0) return part;
  const auto beam_of = [&part](double y) {
    return static_cast<std::size_t>(
        std::lower_bound(part.ys.begin(), part.ys.end(), y) -
        part.ys.begin());
  };
  std::vector<std::atomic<std::int64_t>> counts(m);
  for (auto& c : counts) c.store(0, std::memory_order_relaxed);
  pool.parallel_for(
      bt.edges.size(),
      [&](std::size_t i) {
        for (std::size_t b = beam_of(bt.edges[i].bot.y),
                         hi = beam_of(bt.edges[i].top.y);
             b < hi; ++b)
          counts[b].fetch_add(1, std::memory_order_relaxed);
      },
      /*grain=*/256);
  for (std::size_t b = 0; b < m; ++b) {
    part.offsets[b + 1] =
        part.offsets[b] + counts[b].load(std::memory_order_relaxed);
    counts[b].store(0, std::memory_order_relaxed);
  }
  part.edge_ids.resize(static_cast<std::size_t>(part.offsets[m]));
  pool.parallel_for(
      bt.edges.size(),
      [&](std::size_t i) {
        for (std::size_t b = beam_of(bt.edges[i].bot.y),
                         hi = beam_of(bt.edges[i].top.y);
             b < hi; ++b) {
          const auto slot = counts[b].fetch_add(1, std::memory_order_relaxed);
          part.edge_ids[static_cast<std::size_t>(part.offsets[b] + slot)] =
              static_cast<std::int32_t>(i);
        }
      },
      /*grain=*/256);
  return part;
}

/// Minor page faults and heap bytes per warmed slab_clip call of `pair` on
/// `pool` at its default slab count, over `reps` calls after kWarmups calls that let
/// every pool thread's sweep scratch and the setup slot grow to size.
struct CallFaults {
  std::vector<double> setup;  ///< the alg2.setup span's "minor_faults" arg
  std::vector<double> call;   ///< getrusage ru_minflt delta over the call
  std::vector<double> heap_mb;  ///< operator new bytes over the call, in MB
};

/// Each call first parses its inputs from WKT, as e2ebench's pair_24k op
/// does, so the allocator runs in a serving process's state (the parse's
/// freed buffers set glibc's mmap threshold); the parse's own faults are
/// not counted. The counts are the whole process's: nothing else runs.
CallFaults faults_per_call(par::ThreadPool& pool,
                           const data::SyntheticPair& pair, int reps) {
  const auto minflt = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt;
  };
  const std::string wkt_a = geom::to_wkt(pair.subject);
  const std::string wkt_b = geom::to_wkt(pair.clip);
  constexpr int kWarmups = 3;
  CallFaults faults;
  for (int rep = -kWarmups; rep < reps; ++rep) {
    const std::optional<geom::PolygonSet> a = geom::from_wkt(wkt_a);
    const std::optional<geom::PolygonSet> b = geom::from_wkt(wkt_b);
    obs::TraceRecorder rec;
    mt::Alg2Options o;
    o.trace_sink = &rec;
    const std::uint64_t bytes_before = g_alloc_bytes.load();
    const long before = minflt();
    (void)mt::slab_clip(*a, *b, geom::BoolOp::kIntersection, pool, o);
    const long after = minflt();
    const std::uint64_t bytes = g_alloc_bytes.load() - bytes_before;
    if (rep < 0) continue;
    faults.call.push_back(static_cast<double>(after - before));
    faults.heap_mb.push_back(static_cast<double>(bytes) * 1e-6);
    for (const obs::TraceRecorder::Span& sp : rec.spans())
      if (std::strcmp(sp.name, "alg2.setup") == 0)
        faults.setup.push_back(
            static_cast<double>(sp.arg("minor_faults", 0)));
  }
  return faults;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psclip;
  bench::header("Ablation — Step 2 partitioning: segment tree vs direct binning",
                "paper §III-E Step 2");

  // Page faults first, before the larger runs below have grown the heap
  // and raised glibc's thresholds past what a serving process sees. A
  // warmed call builds its prologue in the retained setup slot and sweeps
  // on the threads' reused scratch. Reported in section 3. The pool has 4
  // threads whatever the host, so the slab count, and with it the bytes a
  // call allocates, is the same everywhere.
  constexpr int kFaultReps = 15;
  const auto pair = data::synthetic_pair(7919, 24000);
  const CallFaults faults = [&] {
    par::ThreadPool fault_pool(4);
    return faults_per_call(fault_pool, pair, kFaultReps);
  }();

  par::ThreadPool pool;
  std::printf("%8s %8s %10s | %14s %14s\n", "edges", "beams", "k'",
              "segtree (ms)", "direct (ms)");
  for (int edges : {1000, 4000, 16000, 64000}) {
    const auto pair = data::synthetic_pair(61, edges);
    seq::BoundTable bt;
    std::vector<double> ys;
    geom::Contour prep;
    seq::build_bounds_into(bt, ys, pair.subject, pair.clip, prep);

    core::ScanbeamPartition part;
    const double t_tree = bench::time_median3(
        [&] { part = core::partition_scanbeams(pool, bt, ys); });
    const double t_direct = bench::time_median3(
        [&] { auto p = partition_direct(pool, bt, ys); (void)p; });
    std::printf("%8zu %8zu %10lld | %14.3f %14.3f\n", bt.num_edges(),
                part.num_beams(),
                static_cast<long long>(part.k_prime(bt.num_edges())),
                t_tree * 1e3, t_direct * 1e3);
  }

  bench::header("Ablation — Alg 2 slab partition: cut reads vs slab count",
                "paper Alg 2 Steps 4-5, made output-sensitive");

  // Two workloads at their full size (the gate is about the cut's reads
  // relative to the table, so it needs slabs taller than most contours):
  // a dense field of 2 x 4000 small polygons, and Fig. 9's dataset II
  // pair, one 24k-edge contour per side, where every line cuts hundreds
  // of bound edges.
  struct Workload {
    const char* name;
    geom::PolygonSet subject, clip;
  };
  const Workload workloads[] = {
      {"polygon_field x2", data::polygon_field(9001, 4000, 100.0, 12),
       data::polygon_field(9002, 4000, 100.0, 10)},
      {"synthetic_pair(7919, 24000)", pair.subject, pair.clip},
  };

  bench::JsonReport report;
  report.field("bench", std::string("ablation_partition"));
  report.field("pool_threads", static_cast<long long>(pool.size()));
  report.field("gate_reads_ratio", 1.3);
  report.field("gate_area_rel", 1e-12);

  bool gate_ok = true;
  for (const Workload& w : workloads) {
    const geom::BoolOp op = geom::BoolOp::kUnion;
    const double want =
        geom::signed_area(seq::vatti_clip(w.subject, w.clip, op));
    std::printf("\nworkload: %s, %zu vertices\n", w.name,
                w.subject.num_vertices() + w.clip.num_vertices());
    std::printf("%6s | %9s %9s %9s %7s | %10s %12s %12s %10s\n", "slabs",
                "seeds", "probes", "touched", "ratio", "area dev",
                "part wall ms", "part cpu ms", "total ms");
    long long table_edges = 0;
    for (const unsigned slabs : {1u, 4u, 16u, 64u}) {
      mt::Alg2Options o;
      o.slabs = slabs;
      mt::Alg2Stats st;
      geom::PolygonSet out;
      const double t = bench::time_median3(
          [&] { out = mt::slab_clip(w.subject, w.clip, op, pool, o, &st); });
      long long touched = 0, seeds = 0, swept = 0;
      for (const auto& sl : st.slabs) {
        touched += sl.touched_edges;
        seeds += sl.boundary_edges;
        swept += sl.input_edges;
      }
      if (slabs == 1) table_edges = swept;
      const double ratio = table_edges > 0
                               ? static_cast<double>(touched) /
                                     static_cast<double>(table_edges)
                               : 0.0;
      const double got = geom::signed_area(out);
      const double dev = std::fabs(got - want) / std::max(1.0, std::fabs(want));
      std::printf("%6u | %9lld %9lld %9lld %7.3f | %10.2e %12.3f %12.3f "
                  "%10.3f\n",
                  slabs, seeds, touched - seeds, touched, ratio, dev,
                  st.phases.partition * 1e3, st.phases.partition_cpu * 1e3,
                  t * 1e3);

      report.row("slab_partition");
      report.cell("workload", std::string(w.name));
      report.cell("slabs", static_cast<long long>(slabs));
      report.cell("table_edges", table_edges);
      report.cell("seeds", seeds);
      report.cell("touched", touched);
      report.cell("touched_ratio", ratio);
      report.cell("swept_edges", swept);
      report.cell("area_rel_dev", dev);
      report.cell("total_ms", t * 1e3);
      // Peak scratch-arena bytes over the run's slabs: the high-water mark
      // the request memory budget would charge.
      long long peak_arena = 0;
      for (const auto& sl : st.slabs)
        peak_arena = std::max(peak_arena,
                              static_cast<long long>(sl.peak_arena_bytes));
      report.cell("peak_arena_bytes", peak_arena);
      // Phase breakdown (from the instrumented Alg2Stats of the last of the
      // three timed runs). Wall = calling-thread section times (sum ≈ the
      // run's elapsed time); cpu = thread-CPU-clock phase time summed across
      // workers (clip_cpu can approach clip_wall × cores).
      report.cell("partition_wall_ms", st.phases.partition * 1e3);
      report.cell("clip_wall_ms", st.phases.clip * 1e3);
      report.cell("merge_wall_ms", st.phases.merge * 1e3);
      report.cell("partition_cpu_ms", st.phases.partition_cpu * 1e3);
      report.cell("clip_cpu_ms", st.phases.clip_cpu * 1e3);
      report.cell("merge_cpu_ms", st.phases.merge_cpu * 1e3);

      if (dev > 1e-12) {
        std::fprintf(stderr,
                     "FAIL: %s at %u slabs: area %.17g vs vatti %.17g "
                     "(rel %.2e > 1e-12)\n",
                     w.name, slabs, got, want, dev);
        gate_ok = false;
      }
      if (slabs > 1 && ratio > 1.3) {
        std::fprintf(stderr,
                     "FAIL: %s at %u slabs: the cut read %lld edges, %.3fx "
                     "the %lld a one-slab run reads (gate 1.3x)\n",
                     w.name, slabs, touched, ratio, table_edges);
        gate_ok = false;
      }
    }
  }
  // Section 3 — the prologue (slab_clip's setup) step by step, from the
  // spans slab_clip emits: each step's wall time and the CPU it burned on
  // every thread (its "cpu_ns" arg), median over the reps, at pool sizes
  // 1 / 2 / 4. sort_minima runs beside schedule (the fragment-schedule
  // merge) and index, so the steps' walls overlap; "setup" is the whole
  // prologue.
  bench::header("Ablation — Alg 2 prologue split: prepare / table / "
                "schedule / index",
                "paper Alg 1 Steps 1-2 and Alg 2 Steps 1-3 on the pool");
  constexpr int kPrologueReps = 15;
  const char* const steps[] = {"alg2.prepare",  "alg2.table",
                               "alg2.sort_minima", "alg2.schedule",
                               "alg2.index",    "alg2.setup"};
  for (const Workload& w : workloads) {
    std::printf("\nworkload: %s (median of %d)\n", w.name, kPrologueReps);
    std::printf("%7s | %-17s %10s %10s\n", "threads", "step", "wall ms",
                "cpu ms");
    for (const unsigned threads : {1u, 2u, 4u}) {
      par::ThreadPool tp(threads);
      mt::Alg2Options o;
      o.slabs = 16;
      std::vector<std::vector<double>> wall(std::size(steps)),
          cpu(std::size(steps));
      for (int rep = 0; rep < kPrologueReps; ++rep) {
        obs::TraceRecorder rec;
        o.trace_sink = &rec;
        (void)mt::slab_clip(w.subject, w.clip, geom::BoolOp::kUnion, tp, o);
        for (const obs::TraceRecorder::Span& sp : rec.spans()) {
          for (std::size_t k = 0; k < std::size(steps); ++k) {
            if (std::strcmp(sp.name, steps[k]) != 0) continue;
            wall[k].push_back(
                static_cast<double>(sp.t_end_ns - sp.t_start_ns) * 1e-6);
            cpu[k].push_back(static_cast<double>(sp.arg("cpu_ns", 0)) *
                             1e-6);
          }
        }
      }
      for (std::size_t k = 0; k < std::size(steps); ++k) {
        const double wm = median(wall[k]), cm = median(cpu[k]);
        const char* step = steps[k] + 5;  // drop "alg2."
        std::printf("%7u | %-17s %10.3f %10.3f\n", threads, step, wm, cm);
        report.row("prologue");
        report.cell("workload", std::string(w.name));
        report.cell("pool_threads", static_cast<long long>(threads));
        report.cell("step", std::string(step));
        report.cell("wall_ms", wm);
        report.cell("cpu_ms", cm);
      }
    }
  }

  // The gate reads the prologue's faults, the part the setup slot owns;
  // the whole call's are reported beside them (the slab outputs and the
  // weld still allocate per call).
  const double setup_mean = mean(faults.setup);
  std::printf("\nwarmed slab_clip of synthetic_pair(7919, 24000), %d calls: "
              "minor page faults per call: prologue mean %.1f, median %.0f, "
              "max %.0f (gate: mean <= %.0f); whole call mean %.1f, median "
              "%.0f\n",
              kFaultReps, setup_mean, median(faults.setup),
              faults.setup.empty() ? 0.0
                                   : *std::max_element(faults.setup.begin(),
                                                       faults.setup.end()),
              kGateSetupMinfltPerOp, mean(faults.call), median(faults.call));
  report.field("pair24k_setup_minflt_mean", setup_mean);
  report.field("pair24k_setup_minflt_median", median(faults.setup));
  report.field("pair24k_call_minflt_mean", mean(faults.call));
  report.field("pair24k_call_minflt_median", median(faults.call));
  report.field("gate_setup_minflt_mean", kGateSetupMinfltPerOp);
  const double heap_mb = mean(faults.heap_mb);
  std::printf("heap allocated per call: mean %.2f MB (gate: <= %.1f MB)\n",
              heap_mb, kGateHeapMbPerOp);
  report.field("pair24k_call_heap_mb_mean", heap_mb);
  report.field("gate_call_heap_mb_mean", kGateHeapMbPerOp);
  if (heap_mb > kGateHeapMbPerOp) {
    std::fprintf(stderr,
                 "FAIL: a warmed slab_clip of synthetic_pair(7919, 24000) "
                 "allocated a mean %.2f MB per call (gate %.1f MB)\n",
                 heap_mb, kGateHeapMbPerOp);
    gate_ok = false;
  }
  if (faults.setup.size() != static_cast<std::size_t>(kFaultReps) ||
      setup_mean > kGateSetupMinfltPerOp) {
    std::fprintf(stderr,
                 "FAIL: the prologue of a warmed slab_clip of "
                 "synthetic_pair(7919, 24000) took a mean %.1f minor page "
                 "faults per call over %zu traced calls (gate %.0f over "
                 "%d)\n",
                 setup_mean, faults.setup.size(), kGateSetupMinfltPerOp,
                 kFaultReps);
    gate_ok = false;
  }

  report.field("gate_ok", static_cast<long long>(gate_ok ? 1 : 0));

  if (const char* path = bench::json_path(argc, argv)) {
    if (!report.write_file(path)) return 1;
    std::printf("\nwrote %s\n", path);
  }
  return gate_ok ? 0 : 1;
}
