#include "mt/algorithm2.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/merge.hpp"
#include "error.hpp"
#include "mt/arena.hpp"
#include "mt/slab_index.hpp"
#include "mt/slab_run.hpp"
#include "obs/trace.hpp"
#include "parallel/cancel.hpp"
#include "parallel/fault.hpp"
#include "parallel/timing.hpp"
#include "seq/bounds.hpp"
#include "seq/vatti.hpp"

namespace psclip::mt {
namespace {

// slab_clip's per-slab degradation ladder, most to least optimistic.
constexpr Rung kLadder[] = {Rung::kHealthy, Rung::kRetrySafe};

/// The slab's pieces end at its lines: it completed on a per-slab rung
/// (not abandoned for a partial result, not replaced by the whole-input
/// recompute).
bool swept(const SlabOut& so) {
  return so.report.rung == Rung::kHealthy ||
         so.report.rung == Rung::kRetrySafe;
}

/// Step 8: concatenate the slab outputs and weld the pieces along every
/// line between two swept slabs. Rings touching none of those lines pass
/// through untouched, in slab order; the welded rings follow.
geom::PolygonSet merge_slabs(std::vector<SlabOut>& outs,
                             std::span<const double> lines,
                             par::ThreadPool& pool) {
  // Line j lies between slabs j and j + 1.
  const auto welded = [&](std::size_t j) {
    return swept(outs[j]) && swept(outs[j + 1]);
  };
  std::vector<std::size_t> weld_idx;
  std::vector<double> weld_ys;  // ascending, as the lines are
  for (std::size_t j = 0; j < lines.size(); ++j)
    if (welded(j)) {
      weld_idx.push_back(j);
      weld_ys.push_back(lines[j]);
    }
  // No vertex compares equal to NaN.
  constexpr double kNoLine = std::numeric_limits<double>::quiet_NaN();
  geom::PolygonSet out;
  core::WeldArena arena;
  bool any = false;
  for (std::size_t t = 0; t < outs.size(); ++t) {
    // Slab t's pieces can only touch its own two lines.
    const double lo = t > 0 && welded(t - 1) ? lines[t - 1] : kNoLine;
    const double hi = t < lines.size() && welded(t) ? lines[t] : kNoLine;
    for (geom::Contour& c : outs[t].result.contours) {
      const bool touches = std::any_of(
          c.pts.begin(), c.pts.end(),
          [&](const geom::Point& q) { return q.y == lo || q.y == hi; });
      if (touches) {
        arena.add_ring(c);
        any = true;
      } else {
        out.contours.push_back(std::move(c));
      }
    }
  }
  if (!any) return out;
  // The slabs are complete: the weld is a short fixed cost that runs
  // ungoverned, so a deadline cannot discard finished slabs at the merge.
  const par::gov::ScopedToken ungoverned{par::CancelToken{}};
  arena.weld_parallel(pool, weld_idx, lines);
  for (geom::Contour& ring : arena.extract().contours) {
    core::drop_cut_vertices(ring, weld_ys);
    out.contours.push_back(std::move(ring));
  }
  return out;
}

}  // namespace

geom::PolygonSet slab_clip(const geom::PolygonSet& subject,
                           const geom::PolygonSet& clip, geom::BoolOp op,
                           par::ThreadPool& pool, const Alg2Options& opts,
                           Alg2Stats* stats) {
  const unsigned p =
      opts.slabs ? opts.slabs
                 : pool.size() * std::max(1u, opts.oversubscribe);
  SlabRun run(pool, opts, stats);
  if (subject.num_vertices() + clip.num_vertices() == 0) return {};
  obs::TraceSink* const sink = opts.trace_sink;
  obs::ScopedSpan setup_span(sink, "alg2.setup", obs::Cat::kPhase);
  par::WallTimer phase_timer;
  par::ThreadCpuTimer phase_cpu_timer;
  // The setup's CPU on other threads: every setup loop charges the chunks
  // pool helpers run for it here, nested loops included.
  par::CpuMeter setup_cpu;
  std::optional<par::ScopedCpuMeter> setup_meter(std::in_place, setup_cpu);
  // One setup step: a span under alg2.setup carrying the CPU the step
  // burned on every thread (its own thread's clock plus its helpers').
  const obs::SpanId setup_id = setup_span.id();
  const auto step = [&](const char* name, const auto& fn) {
    if (!sink) return fn();
    obs::ScopedSpan span(sink, name, obs::Cat::kPhase, setup_id);
    par::CpuMeter helpers(&setup_cpu);
    const par::ThreadCpuTimer own;
    {
      par::ScopedCpuMeter scope(helpers);
      fn();
    }
    span.arg("cpu_ns", std::llround((own.seconds() + helpers.seconds()) * 1e9));
  };

  // Steps 1–3: prepare every contour once (clean + coalesce + perturb +
  // bound decomposition + per-contour schedule), weighted by vertex count
  // so a giant contour decomposes in blocks across the pool.
  PreparedInput sub_prep, clip_prep;
  step("alg2.prepare", [&] {
    prepare_inputs(
        pool, sub_prep, subject.num_contours(),
        [&](std::size_t i) -> const geom::Contour& {
          return subject.contours[i];
        },
        clip_prep, clip.num_contours(),
        [&](std::size_t i) -> const geom::Contour& {
          return clip.contours[i];
        },
        opts.prepared_cache);
  });

  // One read-only bound table for every slab: the fragments concatenated
  // in contour order with sorted minima — byte for byte the table
  // vatti_clip builds — and its schedule merged from the fragments' runs.
  seq::BoundTable bt;
  std::vector<double> ys;
  std::vector<std::size_t> run_end{0};
  std::vector<std::int32_t> heads;
  bool finite = true;
  step("alg2.table", [&] {
    std::size_t nedges = 0, nminima = 0, nys = 0;
    for (const PreparedInput* prep : {&sub_prep, &clip_prep})
      for (const seq::PreparedContour* pc : prep->prep)
        if (pc) {
          nedges += pc->bt.edges.size();
          nminima += pc->bt.minima.size();
          nys += pc->ys.size();
        }
    bt.edges.reserve(nedges);
    bt.minima.reserve(nminima);
    ys.reserve(nys);
    for (const PreparedInput* prep : {&sub_prep, &clip_prep}) {
      for (const seq::PreparedContour* pc : prep->prep) {
        if (!pc) continue;  // degenerate after cleaning: no bounds
        finite = finite && pc->finite;
        seq::append_prepared(bt, *pc);
        ys.insert(ys.end(), pc->ys.begin(), pc->ys.end());
        run_end.push_back(ys.size());
      }
    }
    heads = bound_heads(bt);
  });

  // The minima sort beside Steps 4–5 — the schedule merge, then the slab
  // lines and every line's seed edges: the index needs the edges and the
  // heads, not the sorted minima. The merge allocates, so it is index 0,
  // which this thread usually claims. A non-finite vertex poisons every
  // ordering; the slabs then fail their attempts and the request takes
  // the whole-input rung.
  SlabIndex index{{}, {0}, {}, {}};
  pool.parallel_for(
      2,
      [&](std::size_t task) {
        if (task == 1)
          return step("alg2.sort_minima", [&] { seq::sort_minima(bt); });
        if (!finite) return;
        step("alg2.schedule",
             [&] { seq::merge_sorted_runs_unique(ys, run_end); });
        step("alg2.index",
             [&] { index = build_slab_index(pool, bt, heads, ys, p); });
      },
      /*grain=*/1);
  const std::size_t nslabs = index.num_slabs();
  setup_meter.reset();
  setup_span.arg("seeds", static_cast<std::int64_t>(index.seeds.size()));
  const double t_setup = phase_timer.seconds();
  const double t_setup_caller_cpu = phase_cpu_timer.seconds();
  const double t_setup_cpu = t_setup_caller_cpu + setup_cpu.seconds();
  setup_span.arg("caller_cpu_ns", std::llround(t_setup_caller_cpu * 1e9));
  setup_span.arg("helper_cpu_ns", std::llround(setup_cpu.seconds() * 1e9));
  phase_timer.reset();
  setup_span.end();
  obs::ScopedSpan& req_span = run.request_span();
  req_span.arg("slabs", static_cast<std::int64_t>(nslabs));
  req_span.arg("vertices", static_cast<std::int64_t>(
                               subject.num_vertices() + clip.num_vertices()));
  req_span.arg("op", static_cast<std::int64_t>(op));

  // Steps 4–6 for one slab on one ladder rung: cut the slab's window out
  // of the shared table — its seeds, minima range and schedule slice —
  // and sweep it. kHealthy sweeps on the worker arena's scratch,
  // kRetrySafe on a fresh one; the cut and the sweep are otherwise the
  // same, so the two rungs are byte-identical. Throws on any failure —
  // injected faults, resource exhaustion, or a non-finite coordinate caught
  // by the post-checks — with `so` reset so the next rung starts clean.
  auto attempt_slab = [&](std::size_t t, SlabOut& so, Rung rung) {
    par::gov::checkpoint_now();
    so.result = geom::PolygonSet{};
    so.load = SlabLoad{};
    so.partition_seconds = 0.0;
    so.partition_cpu = 0.0;
    // Memory budget (DESIGN.md §11): the attempt holds a charge for the
    // scratch it grows, raised to the scratch's capacity watermark before
    // the sweep and released when the attempt ends (success or unwind).
    // Concurrent attempts therefore charge the sum of their live scratch —
    // the process's actual slab-scratch footprint.
    par::gov::ScopedCharge arena_charge;
    obs::ScopedSpan part_span(sink, "alg2.slab_partition", obs::Cat::kPhase);
    par::WallTimer timer;
    par::ThreadCpuTimer cpu_timer;
    par::fault::inject(par::fault::Site::kSlabCut);
    if (!finite || par::fault::corrupt(par::fault::Site::kSlabCut))
      throw Error(ErrorCode::kNonFinite,
                  "non-finite vertex in slab " + std::to_string(t) +
                      " partition output");
    seq::SweepWindow w;
    if (t > 0) {
      w.y_lo = index.lines[t - 1];
      w.seeds = index.line_seeds(t - 1);
      so.load.touched_edges =
          static_cast<std::int64_t>(w.seeds.size()) + index.probes[t - 1];
    }
    if (t + 1 < nslabs) w.y_hi = index.lines[t];
    // No vertex lies on a line, so "below the line" splits the y-sorted
    // minima and schedule exactly.
    const auto minima_below = [&](double y) {
      return static_cast<std::size_t>(
          std::partition_point(
              bt.minima.begin(), bt.minima.end(),
              [y](const seq::LocalMin& lm) { return lm.pt.y < y; }) -
          bt.minima.begin());
    };
    const auto ys_below = [&](double y) {
      return static_cast<std::size_t>(
          std::lower_bound(ys.begin(), ys.end(), y) - ys.begin());
    };
    w.min_begin = minima_below(w.y_lo);
    w.min_end = minima_below(w.y_hi);
    const std::size_t ys_lo = ys_below(w.y_lo);
    w.ys = std::span<const double>(ys).subspan(ys_lo,
                                               ys_below(w.y_hi) - ys_lo);

    std::optional<seq::VattiScratch> fresh;
    seq::VattiScratch& scratch =
        rung == Rung::kHealthy ? worker_arena() : fresh.emplace();
    arena_charge.raise_to(scratch.resident_bytes());
    so.partition_seconds = timer.seconds();
    so.partition_cpu = cpu_timer.seconds();
    part_span.arg("seeds", static_cast<std::int64_t>(w.seeds.size()));
    part_span.end();

    obs::ScopedSpan sweep_span(sink, "alg2.slab_sweep", obs::Cat::kPhase);
    timer.reset();
    cpu_timer.reset();
    seq::VattiStats vs;
    so.result =
        seq::vatti_sweep_window(bt, w, op, &vs, scratch);
    if (rung == Rung::kHealthy &&
        par::fault::corrupt(par::fault::Site::kArena)) {
      const double nan = std::numeric_limits<double>::quiet_NaN();
      so.result.add({{nan, nan}, {0.0, 0.0}, {1.0, 1.0}});
    }
    so.load.seconds = timer.seconds();
    so.load.cpu_seconds = cpu_timer.seconds();
    so.load.input_edges = vs.edges;
    so.load.boundary_edges = vs.boundary_edges;
    so.load.output_vertices = vs.output_vertices;
    so.load.peak_arena_bytes =
        static_cast<std::int64_t>(scratch.resident_bytes());
    sweep_span.arg("input_edges", vs.edges);
    sweep_span.arg("output_vertices", vs.output_vertices);
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
  };

  // A slab's y-extent for partial-result reports: its lines, with the
  // schedule's ends standing in for the unbounded outer sides.
  const double y_min = ys.empty() ? 0.0 : ys.front();
  const double y_max = ys.empty() ? 0.0 : ys.back();
  const auto extent = [&](std::size_t t) {
    return std::pair(t > 0 ? index.lines[t - 1] : y_min,
                     t + 1 < nslabs ? index.lines[t] : y_max);
  };
  run.run(nslabs, kLadder, attempt_slab, extent, subject, clip, op);
  const double t_par = phase_timer.seconds();
  phase_timer.reset();

  // Step 8: weld the seams. merge_cpu is the caller's thread CPU clock
  // plus the chunks pool helpers ran for the weld, not the wall section:
  // wall time also charges any time the caller was descheduled while
  // workers wound down.
  obs::ScopedSpan merge_span(sink, "alg2.merge", obs::Cat::kPhase);
  par::ThreadCpuTimer merge_cpu_timer;
  par::CpuMeter merge_helpers;
  geom::PolygonSet out;
  {
    par::ScopedCpuMeter scope(merge_helpers);
    out = merge_slabs(run.outs(), index.lines, pool);
  }
  const double t_merge = phase_timer.seconds();
  const double t_merge_cpu =
      merge_cpu_timer.seconds() + merge_helpers.seconds();
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
