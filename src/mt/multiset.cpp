#include "mt/multiset.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "error.hpp"
#include "mt/arena.hpp"
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

struct PolyRec {
  const geom::Contour* contour;
  double ymin, ymax;
};

std::vector<PolyRec> records(const geom::PolygonSet& p) {
  std::vector<PolyRec> recs;
  recs.reserve(p.num_contours());
  for (const auto& c : p.contours) {
    const geom::BBox b = geom::bounds(c);
    if (b.empty()) continue;
    recs.push_back({&c, b.ymin, b.ymax});
  }
  return recs;
}

/// Descriptor for duplicate elimination: replicated pairs produce the same
/// output region in every slab containing all their generators;
/// coordinates can differ by perturbation noise, so matching is tolerant.
struct ContourSig {
  std::size_t index;
  std::size_t nverts;
  double area, cx, cy;
};

ContourSig signature(const geom::Contour& c, std::size_t index) {
  ContourSig s{index, c.size(), std::fabs(geom::signed_area(c)), 0.0, 0.0};
  for (const auto& p : c.pts) {
    s.cx += p.x;
    s.cy += p.y;
  }
  s.cx /= static_cast<double>(c.size());
  s.cy /= static_cast<double>(c.size());
  return s;
}

geom::PolygonSet drop_duplicates(geom::PolygonSet merged,
                                 std::int64_t* removed) {
  std::vector<ContourSig> sigs;
  sigs.reserve(merged.num_contours());
  for (std::size_t i = 0; i < merged.contours.size(); ++i)
    sigs.push_back(signature(merged.contours[i], i));
  std::sort(sigs.begin(), sigs.end(),
            [](const ContourSig& a, const ContourSig& b) {
              if (a.nverts != b.nverts) return a.nverts < b.nverts;
              return a.area < b.area;
            });
  std::vector<std::uint8_t> drop(merged.contours.size(), 0);
  std::int64_t dups = 0;
  const double eps = 1e-7;
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    if (drop[sigs[i].index]) continue;
    for (std::size_t j = i + 1; j < sigs.size(); ++j) {
      if (sigs[j].nverts != sigs[i].nverts) break;
      if (sigs[j].area - sigs[i].area > eps * (1.0 + std::fabs(sigs[i].area)))
        break;
      if (drop[sigs[j].index]) continue;
      const bool same =
          std::fabs(sigs[j].cx - sigs[i].cx) <=
              eps * (1.0 + std::fabs(sigs[i].cx)) &&
          std::fabs(sigs[j].cy - sigs[i].cy) <=
              eps * (1.0 + std::fabs(sigs[i].cy));
      if (same) {
        drop[sigs[j].index] = 1;
        ++dups;
      }
    }
  }
  geom::PolygonSet out;
  for (std::size_t i = 0; i < merged.contours.size(); ++i)
    if (!drop[i]) out.contours.push_back(std::move(merged.contours[i]));
  if (removed) *removed = dups;
  return out;
}

constexpr SlabRunNames kNames{
    .request = "alg2.multiset_clip",
    .clip = "multiset.clip",
    .slab = "multiset.slab",
    .requests = "multiset.requests",
    .slabs = "multiset.slabs",
    .degraded_slabs = "multiset.degraded_slabs",
    .partial_requests = "multiset.partial_requests",
    .missing_slabs = "multiset.missing_slabs",
    .request_seconds = "multiset.request_seconds",
};

// Replication never splits a polygon, so there is no rectangle clipper to
// swap and no per-slab sequential fallback below the byte-identical retry.
constexpr Rung kLadder[] = {Rung::kHealthy, Rung::kRetrySafe};

}  // namespace

const char* to_string(MultisetAssign a) {
  switch (a) {
    case MultisetAssign::kAuto: return "auto";
    case MultisetAssign::kSubjectOwner: return "subject-owner";
    case MultisetAssign::kReplicate: return "replicate";
    case MultisetAssign::kBlockClosure: return "block-closure";
  }
  return "?";
}

geom::PolygonSet multiset_clip(const geom::PolygonSet& subject,
                               const geom::PolygonSet& clip, geom::BoolOp op,
                               par::ThreadPool& pool,
                               const MultisetOptions& opts,
                               Alg2Stats* stats) {
  const unsigned p = opts.slabs ? opts.slabs : pool.size();
  MultisetAssign mode = opts.assign;
  if (mode == MultisetAssign::kAuto) {
    mode = (op == geom::BoolOp::kIntersection ||
            op == geom::BoolOp::kDifference)
               ? MultisetAssign::kSubjectOwner
               : MultisetAssign::kBlockClosure;
  }
  SlabRun run(kNames, pool, opts, stats);
  obs::TraceSink* const sink = opts.trace_sink;
  obs::ScopedSpan events_span(sink, "multiset.events", obs::Cat::kPhase);
  par::WallTimer phase_timer;
  par::ThreadCpuTimer phase_cpu_timer;
  // The setup's CPU on pool helpers (the event sort, the assignment and
  // prep loops); the caller's own share is phase_cpu_timer's.
  par::CpuMeter setup_cpu;
  std::optional<par::ScopedCpuMeter> setup_meter(std::in_place, setup_cpu);

  const auto srecs = records(subject);
  const auto crecs = records(clip);

  // Event list: both y-extents of every polygon MBR (paper §IV).
  std::vector<double> events;
  events.reserve(2 * (srecs.size() + crecs.size()));
  for (const auto* recs : {&srecs, &crecs}) {
    for (const auto& r : *recs) {
      events.push_back(r.ymin);
      events.push_back(r.ymax);
    }
  }
  if (events.empty()) return {};
  par::parallel_sort(pool, events);

  // Slab boundaries at equal event counts, between adjacent events.
  std::vector<double> bounds;
  bounds.push_back(events.front() - 1.0);
  for (unsigned t = 1; t < p; ++t) {
    const std::size_t cut = t * events.size() / p;
    if (cut == 0 || cut >= events.size()) continue;
    const double b = 0.5 * (events[cut - 1] + events[cut]);
    if (b > bounds.back()) bounds.push_back(b);
  }
  if (events.back() + 1.0 > bounds.back())
    bounds.push_back(events.back() + 1.0);
  const std::size_t nslabs = bounds.size() - 1;
  const double t_events = phase_timer.seconds();
  phase_timer.reset();
  events_span.arg("events", static_cast<std::int64_t>(events.size()));
  events_span.arg("slabs", static_cast<std::int64_t>(nslabs));
  events_span.end();
  run.request_span().arg(
      "polygons", static_cast<std::int64_t>(srecs.size() + crecs.size()));
  run.request_span().arg("op", static_cast<std::int64_t>(op));
  obs::ScopedSpan assign_span(sink, "multiset.assign", obs::Cat::kPhase);

  // ---- Distribute polygons to slabs per the assignment mode. ----
  // Slabs hold *record-id lists* (indices into srecs/crecs), not contour
  // copies: replication assigns whole polygons, so an index is all a slab
  // needs, and the old copy-per-slab materialization — which duplicated a
  // polygon's vertices into every replicating slab — disappears. The
  // materializing rungs below rebuild a slab's PolygonSets from these lists
  // on demand.
  std::vector<std::vector<std::uint32_t>> slab_subject, slab_clip_in;
  // y-extent of every slab task, for PartialReport's missing ranges. Block
  // closure merges slabs into blocks, so the extent list is per *task*,
  // not per decomposition slab.
  std::vector<std::pair<double, double>> work_extent;
  bool need_dedup = false;

  switch (mode) {
    case MultisetAssign::kSubjectOwner: {
      // Each subject polygon goes to exactly one slab; the clip polygons
      // a subject can interact with are replicated into that slab. Every
      // subject (and so every interacting pair) is clipped exactly once.
      slab_subject.resize(nslabs);
      slab_clip_in.resize(nslabs);
      std::vector<std::pair<double, double>> reach(
          nslabs, {std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()});
      auto slab_of = [&bounds](double y) -> std::size_t {
        const auto it =
            std::upper_bound(bounds.begin(), bounds.end(), y);
        const std::size_t i = static_cast<std::size_t>(it - bounds.begin());
        return std::min(i > 0 ? i - 1 : 0, bounds.size() - 2);
      };
      for (std::size_t i = 0; i < srecs.size(); ++i) {
        const PolyRec& r = srecs[i];
        const std::size_t t = slab_of(0.5 * (r.ymin + r.ymax));
        slab_subject[t].push_back(static_cast<std::uint32_t>(i));
        reach[t].first = std::min(reach[t].first, r.ymin);
        reach[t].second = std::max(reach[t].second, r.ymax);
      }
      pool.parallel_for(
          nslabs,
          [&](std::size_t t) {
            for (std::size_t i = 0; i < crecs.size(); ++i)
              if (crecs[i].ymin <= reach[t].second &&
                  crecs[i].ymax >= reach[t].first)
                slab_clip_in[t].push_back(static_cast<std::uint32_t>(i));
          },
          /*grain=*/1);
      break;
    }
    case MultisetAssign::kReplicate: {
      // The paper's scheme: y-overlap replication for both layers.
      slab_subject.resize(nslabs);
      slab_clip_in.resize(nslabs);
      pool.parallel_for(
          nslabs,
          [&](std::size_t t) {
            const double lo = bounds[t], hi = bounds[t + 1];
            for (std::size_t i = 0; i < srecs.size(); ++i)
              if (srecs[i].ymin <= hi && srecs[i].ymax >= lo)
                slab_subject[t].push_back(static_cast<std::uint32_t>(i));
            for (std::size_t i = 0; i < crecs.size(); ++i)
              if (crecs[i].ymin <= hi && crecs[i].ymax >= lo)
                slab_clip_in[t].push_back(static_cast<std::uint32_t>(i));
          },
          /*grain=*/1);
      need_dedup = true;
      break;
    }
    case MultisetAssign::kAuto:  // resolved above; silence the compiler
    case MultisetAssign::kBlockClosure: {
      // Merge MBR y-intervals into maximal blocks (transitive overlap),
      // extend each slab to whole blocks, and drop slabs whose closure
      // duplicates the previous one. Interacting groups are always fully
      // inside every slab that sees part of them, so per-slab outputs of
      // replicated groups are identical and dedup is exact for any op.
      std::vector<std::pair<double, double>> blocks;
      {
        std::vector<std::pair<double, double>> iv;
        iv.reserve(srecs.size() + crecs.size());
        for (const auto* recs : {&srecs, &crecs})
          for (const auto& r : *recs) iv.emplace_back(r.ymin, r.ymax);
        std::sort(iv.begin(), iv.end());
        for (const auto& [lo, hi] : iv) {
          if (!blocks.empty() && lo <= blocks.back().second)
            blocks.back().second = std::max(blocks.back().second, hi);
          else
            blocks.emplace_back(lo, hi);
        }
      }
      auto closure = [&blocks](double lo, double hi) {
        auto it = std::lower_bound(
            blocks.begin(), blocks.end(), lo,
            [](const std::pair<double, double>& b, double v) {
              return b.second < v;
            });
        double nlo = lo, nhi = hi;
        if (it != blocks.end() && it->first <= hi)
          nlo = std::min(nlo, it->first);
        while (it != blocks.end() && it->first <= hi) {
          nhi = std::max(nhi, it->second);
          ++it;
        }
        return std::make_pair(nlo, nhi);
      };
      std::vector<std::pair<double, double>> slab_range;
      for (std::size_t t = 0; t < nslabs; ++t) {
        const auto cl = closure(bounds[t], bounds[t + 1]);
        if (!slab_range.empty() && slab_range.back() == cl) continue;
        slab_range.push_back(cl);
      }
      slab_subject.resize(slab_range.size());
      slab_clip_in.resize(slab_range.size());
      pool.parallel_for(
          slab_range.size(),
          [&](std::size_t t) {
            const double lo = slab_range[t].first, hi = slab_range[t].second;
            for (std::size_t i = 0; i < srecs.size(); ++i)
              if (srecs[i].ymin <= hi && srecs[i].ymax >= lo)
                slab_subject[t].push_back(static_cast<std::uint32_t>(i));
            for (std::size_t i = 0; i < crecs.size(); ++i)
              if (crecs[i].ymin <= hi && crecs[i].ymax >= lo)
                slab_clip_in[t].push_back(static_cast<std::uint32_t>(i));
          },
          /*grain=*/1);
      work_extent = std::move(slab_range);
      need_dedup = true;
      break;
    }
  }
  const std::size_t nwork = slab_subject.size();
  if (work_extent.empty())
    for (std::size_t t = 0; t < nwork; ++t)
      work_extent.emplace_back(bounds[t], bounds[t + 1]);
  par::gov::checkpoint_now();

  // ---- Fused setup: prepare every polygon once, globally. ----
  // Each record gets its clean + coalesce + perturb + bound-decomposition
  // pass exactly once, no matter how many slabs replicate it; slab tasks
  // then concatenate the prepared fragments. Every prep step is
  // per-contour deterministic, so a fragment copy is bit for bit what a
  // materializing vatti_clip would have rebuilt inside the slab.
  PreparedInput sub_prep, clip_prep;
  if (opts.fused) {
    obs::ScopedSpan prep_span(sink, "multiset.fused_prep", obs::Cat::kPhase);
    prepare_inputs(
        pool, sub_prep, srecs.size(),
        [&](std::size_t i) -> const geom::Contour& {
          return *srecs[i].contour;
        },
        clip_prep, crecs.size(),
        [&](std::size_t i) -> const geom::Contour& {
          return *crecs[i].contour;
        },
        opts.prepared_cache);
  }
  const double t_assign = phase_timer.seconds();
  setup_meter.reset();
  const double t_assign_cpu = phase_cpu_timer.seconds() + setup_cpu.seconds();
  phase_timer.reset();
  assign_span.arg("slab_tasks", static_cast<std::int64_t>(nwork));
  assign_span.end();

  // ---- Per-slab sequential clipping, all slabs in parallel. ----
  // One attempt at one slab. The slab id lists are immutable during the
  // clip phase, so a retry simply re-reads them; the only state a rung
  // sheds is the worker-local arena. Throws on failure; each attempt starts
  // from a reset `so`.
  //
  // Healthy + fused: concatenate the globally prepared bound fragments of
  // the slab's polygons into the arena's bound table, run-merge their
  // schedule ys, and sweep — no contour copies, no re-preparation, no
  // schedule sort. kRetrySafe (and fused off) materializes the slab's
  // PolygonSets from the id lists and runs the ordinary vatti_clip, which
  // rebuilds the same table bit for bit (per-contour deterministic prep).
  auto attempt_slab = [&](std::size_t t, SlabOut& so, Rung rung) {
    so.result = geom::PolygonSet{};
    so.load = SlabLoad{};
    // Cooperative checkpoint at attempt entry, then a budget charge scoped
    // to this attempt: raised to the arena capacity watermark (fused) or
    // the materialized slab input size, released when the attempt ends —
    // concurrent attempts charge the sum of their live scratch.
    par::gov::checkpoint_now();
    par::gov::ScopedCharge arena_charge;
    par::WallTimer timer;
    par::ThreadCpuTimer cpu_timer;
    seq::VattiStats vs;
    if (rung == Rung::kHealthy && opts.fused) {
      par::fault::inject(par::fault::Site::kSlabCut);
      SlabArena& arena = worker_arena();
      ++arena.tasks_served;
      seq::VattiScratch& scratch = arena.vatti;
      seq::BoundTable& bt = seq::scratch_bounds(scratch);
      bt.edges.clear();
      bt.minima.clear();
      std::vector<double>& ys = seq::scratch_schedule(scratch);
      ys.clear();
      arena.run_end.clear();
      arena.run_end.push_back(0);
      bool finite = true;
      auto append_ids = [&](const std::vector<std::uint32_t>& ids,
                            const PreparedInput& prep) {
        for (const std::uint32_t id : ids) {
          // Degenerate after cleaning: skipped, same as the materializing
          // prep loop.
          if (!prep.prep[id]) continue;
          const seq::PreparedContour& pc = *prep.prep[id];
          if (!pc.finite) {
            finite = false;
            continue;
          }
          seq::append_prepared(bt, pc);
          so.load.touched_edges +=
              static_cast<std::int64_t>(pc.bt.edges.size());
          if (!pc.ys.empty()) {
            ys.insert(ys.end(), pc.ys.begin(), pc.ys.end());
            arena.run_end.push_back(ys.size());
          }
        }
      };
      append_ids(slab_subject[t], sub_prep);
      append_ids(slab_clip_in[t], clip_prep);
      seq::sort_minima(bt);
      arena_charge.raise_to(arena.resident_bytes());
      so.load.bound_build_ns =
          static_cast<std::int64_t>(timer.seconds() * 1e9);
      if (!finite)
        throw Error(ErrorCode::kNonFinite,
                    "non-finite vertex in multiset slab " +
                        std::to_string(t) + " input");
      par::WallTimer sched_timer;
      seq::merge_sorted_runs_unique(ys, arena.run_end);
      so.load.schedule_ns =
          static_cast<std::int64_t>(sched_timer.seconds() * 1e9);
      so.result = seq::vatti_sweep_prepared(op, &vs, scratch,
                                            /*prebuilt_schedule=*/true);
      if (par::fault::corrupt(par::fault::Site::kArena)) {
        const double nan = std::numeric_limits<double>::quiet_NaN();
        so.result.add({{nan, nan}, {0.0, 0.0}, {1.0, 1.0}});
      }
    } else {
      geom::PolygonSet a_t, b_t;
      auto materialize = [](const std::vector<std::uint32_t>& ids,
                            const std::vector<PolyRec>& recs,
                            geom::PolygonSet& set) {
        set.contours.reserve(ids.size());
        for (const std::uint32_t id : ids)
          set.contours.push_back(*recs[id].contour);
      };
      materialize(slab_subject[t], srecs, a_t);
      materialize(slab_clip_in[t], crecs, b_t);
      arena_charge.raise_to(
          (a_t.num_vertices() + b_t.num_vertices()) * sizeof(geom::Point));
      so.load.touched_edges = static_cast<std::int64_t>(
          a_t.num_vertices() + b_t.num_vertices());
      if (rung == Rung::kHealthy) {
        SlabArena& arena = worker_arena();
        ++arena.tasks_served;
        so.result = seq::vatti_clip(a_t, b_t, op, &vs, &arena.vatti);
        if (par::fault::corrupt(par::fault::Site::kArena)) {
          const double nan = std::numeric_limits<double>::quiet_NaN();
          so.result.add({{nan, nan}, {0.0, 0.0}, {1.0, 1.0}});
        }
      } else {  // kRetrySafe: fresh scratch, no arena — bit-identical rerun.
        so.result = seq::vatti_clip(a_t, b_t, op, &vs);
      }
      so.load.bound_build_ns = vs.bound_build_ns;
      so.load.schedule_ns = vs.schedule_ns;
    }
    so.load.seconds = timer.seconds();
    so.load.cpu_seconds = cpu_timer.seconds();
    so.load.input_edges = vs.edges;
    so.load.output_vertices = vs.output_vertices;
    if (rung == Rung::kHealthy) {
      // Both healthy branches ran on the worker arena; kRetrySafe uses
      // fresh scratch that is freed with the attempt and reports 0.
      so.load.peak_arena_bytes =
          static_cast<std::int64_t>(worker_arena().resident_bytes());
      if (sink)
        sink->observe("multiset.slab_peak_arena_bytes",
                      static_cast<double>(so.load.peak_arena_bytes));
    }
    if (sink) sink->observe("multiset.slab_clip_seconds", so.load.seconds);
    if (!geom::is_finite(so.result))
      throw Error(ErrorCode::kNonFinite,
                  "non-finite vertex in multiset slab " + std::to_string(t) +
                      " output");
  };

  run.run(nwork, kLadder, attempt_slab,
          [&](std::size_t t) { return work_extent[t]; }, subject, clip, op);
  // The whole-input rung replaced every per-slab output with one
  // sequential clip (same region, nothing replicated left to drop).
  if (run.whole_input()) need_dedup = false;
  const double t_clip = phase_timer.seconds();
  phase_timer.reset();

  // ---- Post-processing: concatenate; drop replicated duplicates. ----
  // merge_cpu comes from the thread CPU clock (the merge runs on the caller
  // only; wall time also charges caller descheduling).
  obs::ScopedSpan merge_span(sink, "multiset.merge", obs::Cat::kPhase);
  par::ThreadCpuTimer merge_cpu_timer;
  geom::PolygonSet merged;
  for (auto& so : run.outs())
    for (auto& c : so.result.contours)
      merged.contours.push_back(std::move(c));
  std::int64_t dups = 0;
  geom::PolygonSet out = need_dedup
                             ? drop_duplicates(std::move(merged), &dups)
                             : std::move(merged);
  const double t_merge = phase_timer.seconds();
  const double t_merge_cpu = merge_cpu_timer.seconds();
  merge_span.arg("output_contours",
                 static_cast<std::int64_t>(out.num_contours()));
  merge_span.arg("duplicates_removed", dups);
  merge_span.end();

  // Wall and CPU split (see PhaseTimes): the event/assignment/prep passes
  // run as caller-side sections (their CPU is the caller's thread CPU clock
  // over the same window plus what pool helpers spent on their loops); the
  // clip phase is the parallel region, so its cpu time is the per-slab sum
  // of thread-CPU clip times, which can exceed the region's wall time
  // p-fold.
  PhaseTimes phases;
  phases.partition = t_events + t_assign;
  phases.clip = t_clip;
  phases.merge = t_merge;
  phases.partition_cpu = t_assign_cpu;
  phases.merge_cpu = t_merge_cpu;
  run.finish(out, phases);
  if (stats) stats->duplicates_removed = dups;
  return out;
}

}  // namespace psclip::mt
