#include "mt/algorithm2.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <utility>

#include "error.hpp"
#include "mt/arena.hpp"
#include "mt/slab_index.hpp"
#include "mt/slab_run.hpp"
#include "obs/trace.hpp"
#include "parallel/cancel.hpp"
#include "parallel/fault.hpp"
#include "parallel/sort.hpp"
#include "parallel/timing.hpp"
#include "seq/bounds.hpp"
#include "seq/vatti.hpp"

namespace psclip::mt {
namespace {

/// Slab boundaries with (nearly) equal event counts per slab, each placed
/// midway between two adjacent distinct event ordinates so that no input
/// vertex lies exactly on a boundary (keeps the Greiner–Hormann rectangle
/// clipping in general position).
std::vector<double> slab_bounds(const std::vector<double>& ys,
                                const geom::BBox& mbr, unsigned slabs) {
  std::vector<double> bounds;
  bounds.reserve(slabs + 1);
  const double margin = 0.5 * std::max(mbr.height(), 1e-9) * 1e-6 + 1e-12;
  bounds.push_back(mbr.ymin - margin);
  const std::size_t n = ys.size();
  for (unsigned t = 1; t < slabs; ++t) {
    const std::size_t cut = t * n / slabs;
    if (cut == 0 || cut >= n) continue;
    const double b = 0.5 * (ys[cut - 1] + ys[cut]);
    if (b > bounds.back()) bounds.push_back(b);
  }
  const double top = mbr.ymax + margin;
  if (top > bounds.back()) bounds.push_back(top);
  return bounds;
}

constexpr SlabRunNames kNames{
    .request = "alg2.slab_clip",
    .clip = "alg2.clip",
    .slab = "alg2.slab",
    .requests = "alg2.requests",
    .slabs = "alg2.slabs",
    .degraded_slabs = "alg2.degraded_slabs",
    .partial_requests = "alg2.partial_requests",
    .missing_slabs = "alg2.missing_slabs",
    .request_seconds = "alg2.request_seconds",
};

// slab_clip's per-slab degradation ladder, most to least optimistic.
constexpr Rung kLadder[] = {Rung::kHealthy, Rung::kRetrySafe,
                            Rung::kAltRectMethod, Rung::kSlabSequential};

}  // namespace

geom::PolygonSet slab_clip(const geom::PolygonSet& subject,
                           const geom::PolygonSet& clip, geom::BoolOp op,
                           par::ThreadPool& pool, const Alg2Options& opts,
                           Alg2Stats* stats) {
  const unsigned p =
      opts.slabs ? opts.slabs
                 : pool.size() * std::max(1u, opts.oversubscribe);
  SlabRun run(kNames, pool, opts, stats);
  obs::TraceSink* const sink = opts.trace_sink;
  obs::ScopedSpan setup_span(sink, "alg2.setup", obs::Cat::kPhase);
  par::WallTimer phase_timer;
  par::ThreadCpuTimer phase_cpu_timer;

  // Steps 1-3: event ordinates, sorted, and the joint MBR.
  std::vector<double> ys;
  ys.reserve(subject.num_vertices() + clip.num_vertices());
  geom::BBox mbr;
  for (const auto* input : {&subject, &clip}) {
    for (const auto& c : input->contours) {
      for (const auto& pt : c.pts) {
        ys.push_back(pt.y);
        mbr.expand(pt);
      }
    }
  }
  if (ys.empty()) return {};
  par::parallel_sort(pool, ys);
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());

  const std::vector<double> bounds = slab_bounds(ys, mbr, p);
  const std::size_t nslabs = bounds.size() - 1;

  // Slab-overlap contour index (kFused): cache each contour's bbox in one
  // parallel pass, then build per-slab exact overlap lists so slab t only
  // ever reads its own contours. Under kBroadcast the index is skipped and
  // every slab scans both whole inputs (the paper's O(p·n) formulation).
  const bool fused = opts.partition == Alg2Partition::kFused;
  std::vector<geom::BBox> sub_boxes, clip_boxes;
  SlabContourIndex sub_idx, clip_idx;
  if (fused) {
    sub_boxes.resize(subject.num_contours());
    clip_boxes.resize(clip.num_contours());
    pool.parallel_for(
        subject.num_contours(),
        [&](std::size_t i) { sub_boxes[i] = geom::bounds(subject.contours[i]); },
        /*grain=*/64);
    pool.parallel_for(
        clip.num_contours(),
        [&](std::size_t i) { clip_boxes[i] = geom::bounds(clip.contours[i]); },
        /*grain=*/64);
    sub_idx = build_slab_index(pool, sub_boxes, bounds);
    clip_idx = build_slab_index(pool, clip_boxes, bounds);
  }

  // kFused setup: prepare every contour once, globally — clean + coalesce +
  // perturb + bound decomposition + per-contour schedule run. Every prep
  // step is per-contour deterministic, so a slab copying a fragment gets
  // bit for bit what the materializing path's per-slab re-preparation would
  // have rebuilt. Also classify contours as *well-contained* (overlap
  // exactly one slab by original bbox AND the prepared bbox sits strictly
  // inside that slab's open interval — perturbation can push a vertex past
  // a boundary, and a boundary-touching contour is "inside" two slabs):
  // their schedule ys go into one shared globally merged y-schedule that
  // slab tasks slice instead of re-sorting, and the strict containment is
  // what makes the slice exact.
  PreparedInput sub_prep, clip_prep;
  std::vector<std::uint8_t> sub_well, clip_well;
  std::vector<double> shared_ys;
  if (fused) {
    obs::ScopedSpan prep_span(sink, "alg2.fused_prep", obs::Cat::kPhase);
    auto prep_input = [&](const geom::PolygonSet& input,
                          const std::vector<geom::BBox>& boxes,
                          PreparedInput& prep,
                          std::vector<std::uint8_t>& well, bool is_clip) {
      well.assign(input.num_contours(), 0);
      prep.prepare(
          pool, input.num_contours(),
          [&](std::size_t i) -> const geom::Contour& {
            return input.contours[i];
          },
          is_clip, opts.prepared_cache,
          [&](std::size_t i, const seq::PreparedContour& pc) {
            const SlabRange r =
                slab_range(boxes[i].ymin, boxes[i].ymax, bounds, nslabs);
            well[i] = r.lo <= r.hi && r.single() &&
                              bounds[r.lo] < pc.box.ymin &&
                              pc.box.ymax < bounds[r.lo + 1]
                          ? 1
                          : 0;
          });
    };
    prep_input(subject, sub_boxes, sub_prep, sub_well, /*is_clip=*/false);
    prep_input(clip, clip_boxes, clip_prep, clip_well, /*is_clip=*/true);
    std::vector<std::size_t> runs{0};
    auto collect = [&](const PreparedInput& prep,
                       const std::vector<std::uint8_t>& well) {
      for (std::size_t i = 0; i < prep.prep.size(); ++i) {
        if (!well[i] || prep.prep[i]->ys.empty()) continue;
        shared_ys.insert(shared_ys.end(), prep.prep[i]->ys.begin(),
                         prep.prep[i]->ys.end());
        runs.push_back(shared_ys.size());
      }
    };
    collect(sub_prep, sub_well);
    collect(clip_prep, clip_well);
    seq::merge_sorted_runs_unique(shared_ys, runs);
    prep_span.arg("shared_ys",
                  static_cast<std::int64_t>(shared_ys.size()));
  }
  const double t_setup = phase_timer.seconds();
  const double t_setup_cpu = phase_cpu_timer.seconds();
  phase_timer.reset();
  setup_span.end();
  obs::ScopedSpan& req_span = run.request_span();
  req_span.arg("slabs", static_cast<std::int64_t>(nslabs));
  req_span.arg("vertices", static_cast<std::int64_t>(
                               subject.num_vertices() + clip.num_vertices()));
  req_span.arg("op", static_cast<std::int64_t>(op));

  // Rectangle clipper for the kAltRectMethod rung: whichever of the two
  // full clippers the run was *not* configured with.
  const seq::RectClipMethod alt_method =
      opts.rect_method == seq::RectClipMethod::kVatti
          ? seq::RectClipMethod::kGreinerHormann
          : seq::RectClipMethod::kVatti;

  // Steps 4-6 for one slab on one ladder rung: rectangle-clip both inputs
  // to the slab, then run the sequential clipper on the slab pair. Throws
  // on any failure —
  // injected faults, resource exhaustion, or a non-finite coordinate caught
  // by the post-checks — with `so` reset so the next rung starts clean.
  auto attempt_slab = [&](std::size_t t, SlabOut& so, Rung rung) {
    par::gov::checkpoint_now();
    so.result = geom::PolygonSet{};
    so.load = SlabLoad{};
    so.partition_seconds = 0.0;
    so.partition_cpu = 0.0;
    // Memory budget (DESIGN.md §11): the attempt holds a charge for the
    // arena it grows, raised to the arena's capacity watermark after each
    // growth step and released when the attempt ends (success or unwind).
    // Concurrent attempts therefore charge the sum of their live arenas —
    // the process's actual slab-scratch footprint.
    par::gov::ScopedCharge arena_charge;
    obs::ScopedSpan part_span(sink, "alg2.slab_partition", obs::Cat::kPhase);
    par::WallTimer timer;
    par::ThreadCpuTimer cpu_timer;
    const geom::BBox rect{mbr.xmin - 1.0, bounds[t], mbr.xmax + 1.0,
                          bounds[t + 1]};

    if (rung == Rung::kHealthy && fused) {
      // Fused fast path: assemble the slab's bound table and scanbeam
      // schedule directly from the globally prepared fragments — no
      // intermediate slab polygon sets, no per-slab re-preparation, no
      // per-slab schedule sort. The degradation ladder's next rung
      // (kRetrySafe) is the materializing broadcast path, byte-identical
      // to this one.
      SlabArena& arena = worker_arena();
      ++arena.tasks_served;
      seq::VattiScratch& scratch = arena.vatti;
      seq::BoundTable& bt = seq::scratch_bounds(scratch);
      bt.edges.clear();
      bt.minima.clear();
      std::vector<double>& sched = seq::scratch_schedule(scratch);
      sched.clear();
      arena.run_end.clear();
      arena.run_end.push_back(0);
      // Shared-schedule slice: every well-contained contour's ys lie
      // strictly inside its home slab's open interval, so the values in
      // (bounds[t], bounds[t+1]) are exactly this slab's share.
      {
        const auto lo =
            std::upper_bound(shared_ys.begin(), shared_ys.end(), bounds[t]);
        const auto hi = std::lower_bound(lo, shared_ys.end(), bounds[t + 1]);
        sched.insert(sched.end(), lo, hi);
        arena.run_end.push_back(sched.size());
      }
      seq::FusedClipStats fstats;
      bool finite = true;
      auto fused_input = [&](const geom::PolygonSet& input,
                             const SlabContourIndex& idx,
                             const PreparedInput& prep,
                             const std::vector<std::uint8_t>& well,
                             bool is_clip) {
        const std::span<const SlabEntry> list = idx.slab(t);
        arena.refs.clear();
        arena.inside.clear();
        arena.prep_refs.clear();
        arena.in_shared.clear();
        arena.refs.reserve(list.size());
        arena.inside.reserve(list.size());
        arena.prep_refs.reserve(list.size());
        arena.in_shared.reserve(list.size());
        for (const SlabEntry& e : list) {
          arena.refs.push_back(&input.contours[e.contour]);
          arena.inside.push_back(e.inside ? 1 : 0);
          arena.prep_refs.push_back(prep.prep[e.contour]);
          arena.in_shared.push_back(well[e.contour] ? 1 : 0);
        }
        if (!seq::clip_bounds_to_slab(arena.prep_refs, arena.refs,
                                      arena.inside, arena.in_shared, rect,
                                      opts.rect_method, is_clip, &arena.rect,
                                      bt, sched, arena.run_end, &fstats))
          finite = false;
      };
      fused_input(subject, sub_idx, sub_prep, sub_well,
                  /*is_clip=*/false);
      fused_input(clip, clip_idx, clip_prep, clip_well,
                  /*is_clip=*/true);
      seq::sort_minima(bt);
      // The slab's bound table and schedule are fully assembled: raise the
      // attempt's budget charge to the arena watermark before committing to
      // the sweep (whose own per-beam checkpoint then charges output
      // growth).
      arena_charge.raise_to(arena.resident_bytes());
      so.load.touched_edges = fstats.touched_edges;
      so.load.boundary_edges = fstats.boundary_edges;
      so.load.bound_build_ns =
          static_cast<std::int64_t>(timer.seconds() * 1e9);
      so.partition_seconds = timer.seconds();
      so.partition_cpu = cpu_timer.seconds();
      part_span.arg("touched_edges", so.load.touched_edges);
      part_span.arg("boundary_edges", so.load.boundary_edges);
      part_span.end();
      if (!finite)
        throw Error(ErrorCode::kNonFinite,
                    "non-finite vertex in slab " + std::to_string(t) +
                        " partition output");
      obs::ScopedSpan sweep_span(sink, "alg2.slab_sweep", obs::Cat::kPhase);
      timer.reset();
      cpu_timer.reset();
      // Finish the schedule: one bottom-up merge of (shared slice, stray
      // runs, piece runs) — same sorted distinct vector either sweep
      // kernel would have built from this table.
      par::WallTimer sched_timer;
      seq::merge_sorted_runs_unique(sched, arena.run_end);
      so.load.schedule_ns =
          static_cast<std::int64_t>(sched_timer.seconds() * 1e9);
      seq::VattiStats vs;
      so.result = seq::vatti_sweep_prepared(op, &vs, scratch,
                                            opts.sweep_kernel,
                                            /*prebuilt_schedule=*/true);
      if (par::fault::corrupt(par::fault::Site::kArena)) {
        const double nan = std::numeric_limits<double>::quiet_NaN();
        so.result.add({{nan, nan}, {0.0, 0.0}, {1.0, 1.0}});
      }
      so.load.seconds = timer.seconds();
      so.load.cpu_seconds = cpu_timer.seconds();
      so.load.input_edges = vs.edges;
      so.load.output_vertices = vs.output_vertices;
      so.load.peak_arena_bytes =
          static_cast<std::int64_t>(arena.resident_bytes());
      sweep_span.arg("input_edges", vs.edges);
      sweep_span.arg("output_vertices", vs.output_vertices);
      sweep_span.arg("schedule_ns", so.load.schedule_ns);
      sweep_span.end();
      if (sink) {
        sink->observe("alg2.slab_clip_seconds", so.load.seconds);
        sink->observe("alg2.slab_peak_arena_bytes",
                      static_cast<double>(so.load.peak_arena_bytes));
      }
      if (!geom::is_finite(so.result))
        throw Error(ErrorCode::kNonFinite,
                    "non-finite vertex in slab " + std::to_string(t) +
                        " clip output");
      return;
    }

    geom::PolygonSet a_t, b_t;
    seq::VattiScratch* scratch = nullptr;
    if (rung == Rung::kHealthy) {
      SlabArena& arena = worker_arena();
      ++arena.tasks_served;
      scratch = &arena.vatti;
    }
    so.load.touched_edges = static_cast<std::int64_t>(
        subject.num_vertices() + clip.num_vertices());
    if (rung != Rung::kSlabSequential) {
      // Broadcast partition: scan and classify both whole inputs. kHealthy
      // (kBroadcast) and kRetrySafe differ only in the sweep scratch, so
      // they are bit-identical; kAltRectMethod reaches the same region via
      // the alternate rectangle clipper.
      const seq::RectClipMethod m =
          rung == Rung::kAltRectMethod ? alt_method : opts.rect_method;
      a_t = seq::rect_clip(subject, rect, m);
      b_t = seq::rect_clip(clip, rect, m);
    } else {  // kSlabSequential: no rect_clip fast path at all — clip the
              // slab rectangle as an ordinary polygon operand with the full
              // sequential Vatti clipper.
      geom::PolygonSet rp;
      rp.contours.push_back(
          geom::make_rect(rect.xmin, rect.ymin, rect.xmax, rect.ymax));
      a_t = seq::vatti_clip(subject, rp, geom::BoolOp::kIntersection, nullptr,
                            nullptr, opts.sweep_kernel);
      b_t = seq::vatti_clip(clip, rp, geom::BoolOp::kIntersection, nullptr,
                            nullptr, opts.sweep_kernel);
    }
    so.partition_seconds = timer.seconds();
    so.partition_cpu = cpu_timer.seconds();
    part_span.arg("touched_edges", so.load.touched_edges);
    part_span.end();
    // Charge the materialized slab inputs (the structures this attempt
    // retains until it returns); the sweep's own checkpoint charges output
    // growth on top.
    arena_charge.raise_to(
        (a_t.num_vertices() + b_t.num_vertices()) * sizeof(geom::Point));
    // Never hand a corrupted partition to the sweep: a NaN vertex can wedge
    // the event queue, not just skew the output.
    if (!geom::is_finite(a_t) || !geom::is_finite(b_t))
      throw Error(ErrorCode::kNonFinite,
                  "non-finite vertex in slab " + std::to_string(t) +
                      " partition output");
    obs::ScopedSpan sweep_span(sink, "alg2.slab_sweep", obs::Cat::kPhase);
    timer.reset();
    cpu_timer.reset();
    seq::VattiStats vs;
    so.result = seq::vatti_clip(a_t, b_t, op, &vs, scratch, opts.sweep_kernel);
    if (rung == Rung::kHealthy &&
        par::fault::corrupt(par::fault::Site::kArena)) {
      const double nan = std::numeric_limits<double>::quiet_NaN();
      so.result.add({{nan, nan}, {0.0, 0.0}, {1.0, 1.0}});
    }
    so.load.seconds = timer.seconds();
    so.load.cpu_seconds = cpu_timer.seconds();
    so.load.input_edges = vs.edges;
    so.load.output_vertices = vs.output_vertices;
    so.load.bound_build_ns = vs.bound_build_ns;
    so.load.schedule_ns = vs.schedule_ns;
    if (scratch)
      so.load.peak_arena_bytes =
          static_cast<std::int64_t>(worker_arena().resident_bytes());
    sweep_span.arg("input_edges", vs.edges);
    sweep_span.arg("output_vertices", vs.output_vertices);
    sweep_span.end();
    if (sink) {
      sink->observe("alg2.slab_clip_seconds", so.load.seconds);
      if (scratch)
        sink->observe("alg2.slab_peak_arena_bytes",
                      static_cast<double>(so.load.peak_arena_bytes));
    }
    if (!geom::is_finite(so.result))
      throw Error(ErrorCode::kNonFinite,
                  "non-finite vertex in slab " + std::to_string(t) +
                      " clip output");
  };

  run.run(nslabs, kLadder, attempt_slab,
          [&](std::size_t t) { return std::pair(bounds[t], bounds[t + 1]); },
          subject, clip, op);
  const double t_par = phase_timer.seconds();
  phase_timer.reset();

  // Step 8 (sequential in the paper): concatenate the per-slab outputs.
  // merge_cpu is measured with the thread CPU clock, not copied from the
  // wall section: the merge runs on the caller only, but wall time still
  // charges any time the caller was descheduled while workers wound down.
  obs::ScopedSpan merge_span(sink, "alg2.merge", obs::Cat::kPhase);
  par::ThreadCpuTimer merge_cpu_timer;
  geom::PolygonSet out;
  for (auto& so : run.outs())
    for (auto& c : so.result.contours) out.contours.push_back(std::move(c));
  const double t_merge = phase_timer.seconds();
  const double t_merge_cpu = merge_cpu_timer.seconds();
  merge_span.arg("output_contours",
                 static_cast<std::int64_t>(out.num_contours()));
  merge_span.end();

  // Fig. 9's categories, in two consistent unit systems (see PhaseTimes):
  // wall = the calling thread's sections (setup / parallel region /
  // merge); cpu = per-worker time actually spent in the phase, summed
  // across workers.
  PhaseTimes phases;
  phases.partition = t_setup;
  phases.clip = t_par;
  phases.merge = t_merge;
  phases.partition_cpu = t_setup_cpu;
  phases.merge_cpu = t_merge_cpu;
  run.finish(out, phases);
  return out;
}

}  // namespace psclip::mt
