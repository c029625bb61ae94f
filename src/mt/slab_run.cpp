#include "mt/slab_run.hpp"

#include <exception>
#include <new>

#include "error.hpp"
#include "parallel/fault.hpp"
#include "seq/vatti.hpp"

namespace psclip::mt {
namespace {

/// Small contours are prepared in pool tasks of about this many vertices.
constexpr std::size_t kPrepareBatchVertices = 4096;

/// Record the in-flight exception's taxonomy code and message into a slab's
/// degradation report. Must be called from inside a catch block.
void classify_failure(DegradationReport& rep) {
  try {
    throw;
  } catch (const Error& e) {
    rep.cause = e.code();
    rep.message = e.what();
  } catch (const std::bad_alloc&) {
    rep.cause = ErrorCode::kResource;
    rep.message = "std::bad_alloc";
  } catch (const std::exception& e) {
    rep.cause = ErrorCode::kSlabFailure;
    rep.message = e.what();
  } catch (...) {
    rep.cause = ErrorCode::kSlabFailure;
    rep.message = "unknown exception";
  }
}

}  // namespace

void prepare_inputs(par::ThreadPool& pool, PreparedInput& sub,
                    std::size_t nsub, const ContourAt& sub_at,
                    PreparedInput& clip, std::size_t nclip,
                    const ContourAt& clip_at, seq::PreparedSource* cache) {
  for (auto [prep, n] : {std::pair{&sub, nsub}, std::pair{&clip, nclip}}) {
    prep->prep.assign(n, nullptr);
    if (cache)
      prep->held.resize(n);
    else
      prep->own.resize(n);
  }
  // Contour g < nsub is subject contour g, the rest are clip contours.
  const std::size_t total = nsub + nclip;
  const auto input_of = [&](std::size_t g) -> PreparedInput& {
    return g < nsub ? sub : clip;
  };
  const auto index_of = [&](std::size_t g) { return g < nsub ? g : g - nsub; };
  const auto contour_at = [&](std::size_t g) -> const geom::Contour& {
    return g < nsub ? sub_at(g) : clip_at(g - nsub);
  };
  const auto prepare_one = [&](std::size_t g) {
    PreparedInput& in = input_of(g);
    const std::size_t i = index_of(g);
    if (cache) {
      in.held[i] = cache->prepared(contour_at(g), &in == &clip);
      in.prep[i] = in.held[i].get();
    } else if (seq::prepare_contour(contour_at(g), &in == &clip, in.own[i])) {
      in.prep[i] = &in.own[i];
    }
  };
  // Task t prepares contours [task_begin[t], task_begin[t + 1]): a large
  // contour alone, runs of small ones in batches of about
  // kPrepareBatchVertices vertices.
  std::vector<std::size_t> task_begin{0};
  std::size_t batch = 0;
  for (std::size_t g = 0; g < total; ++g) {
    const std::size_t nv = contour_at(g).size();
    if (nv >= kPrepareBatchVertices) {
      if (batch > 0) task_begin.push_back(g);
      task_begin.push_back(g + 1);
      batch = 0;
      // Its fragment's storage is allocated here, so the memory returns to
      // this thread's allocator arena rather than piling up in a worker's.
      if (!cache) {
        seq::PreparedContour& pc = input_of(g).own[index_of(g)];
        pc.pts.pts.reserve(nv);
        pc.bt.edges.reserve(nv);
        pc.bt.minima.reserve(nv / 2);
        pc.ys.reserve(nv + nv / 2);
      }
    } else if ((batch += nv) >= kPrepareBatchVertices) {
      task_begin.push_back(g + 1);
      batch = 0;
    }
  }
  if (task_begin.back() != total) task_begin.push_back(total);
  pool.parallel_for(
      task_begin.size() - 1,
      [&](std::size_t t) {
        for (std::size_t g = task_begin[t]; g < task_begin[t + 1]; ++g)
          prepare_one(g);
      },
      /*grain=*/1);
}

SlabRun::SlabRun(par::ThreadPool& pool, const Alg2Options& opts,
                 Alg2Stats* stats)
    : pool_(pool), opts_(opts), stats_(stats) {
  // A reused stats object must not carry the previous run's record into a
  // call that returns early (empty input) or throws.
  if (stats_) *stats_ = Alg2Stats{};
  // parallel_for re-installs the token inside every chunk it runs, so
  // checkpoints fire on all workers.
  if (opts_.cancel.valid()) gov_scope_.emplace(opts_.cancel);
  par::gov::checkpoint_now();
  req_span_ = obs::ScopedSpan(opts_.trace_sink, "alg2.slab_clip",
                              obs::Cat::kRequest);
  req_timer_.reset();
}

void SlabRun::run(std::size_t ntasks, std::span<const Rung> ladder,
                  const Attempt& attempt, const Extent& extent,
                  const geom::PolygonSet& subject,
                  const geom::PolygonSet& clip, geom::BoolOp op) {
  obs::TraceSink* const sink = opts_.trace_sink;
  outs_.assign(ntasks, SlabOut{});

  // Walk one slab down the ladder starting at `first`. Records rung
  // reached / attempt count / first cause in so.report; flags the slab
  // exhausted when every rung fails. Never throws.
  auto walk_ladder = [&](std::size_t t, SlabOut& so, Rung first) {
    so.done = true;
    bool recorded = !so.report.message.empty();
    for (const Rung rung : ladder) {
      if (rung < first) continue;
      // Governance gate before burning a rung: a cancelled request, an
      // expired deadline, or a *sticky* blown budget (memory still
      // retained over the limit) makes every further attempt hopeless —
      // time and memory lost in this slab are lost globally, unlike the
      // slab-local faults the ladder exists for. A transient budget
      // failure (e.g. an allocation spike released with its attempt)
      // passes this gate and gets its retry on the next rung, preserving
      // byte-identical recovery.
      try {
        par::gov::checkpoint_now();
      } catch (...) {
        if (!recorded) classify_failure(so.report);
        so.result = geom::PolygonSet{};
        so.exhausted = true;
        return;
      }
      ++so.report.attempts;
      // One kRung span per ladder attempt, named after the rung; nests
      // under the enclosing slab span (same thread, implicit parent).
      obs::ScopedSpan rung_span(sink, to_string(rung), obs::Cat::kRung);
      rung_span.arg("rung", static_cast<std::int64_t>(rung));
      try {
        attempt(t, so, rung);
        so.report.rung = rung;
        return;
      } catch (...) {
        rung_span.arg("failed", 1);
        if (!recorded) {
          classify_failure(so.report);
          recorded = true;
        }
      }
    }
    so.result = geom::PolygonSet{};  // a failed attempt may leave debris
    so.exhausted = true;
  };

  obs::ScopedSpan clip_span(sink, "alg2.clip", obs::Cat::kPhase);
  const obs::SpanId clip_id = clip_span.id();
  // The slab span parents to the clip-phase span *explicitly*: the phase
  // span lives on the calling thread while slab tasks run on whichever
  // thread claims them, so implicit (same-thread) nesting cannot link them.
  auto run_slab = [&](std::size_t t, Rung first) {
    SlabOut& so = outs_[t];
    obs::ScopedSpan slab_span(sink, "alg2.slab", obs::Cat::kSlab, clip_id);
    slab_span.arg("slab", static_cast<std::int64_t>(t));
    slab_span.arg("worker", so.worker);
    // Deterministic fault key: a plan keyed on slab index t fires for
    // this slab no matter which worker the scheduler hands it to.
    par::fault::ScopedKey key(t);
    if (opts_.isolate_faults) {
      if (first == Rung::kHealthy) so.report.attempts = 0;
      walk_ladder(t, so, first);
    } else {
      attempt(t, so, Rung::kHealthy);
      so.done = true;
    }
    slab_span.arg("rung", static_cast<std::int64_t>(so.report.rung));
    slab_span.arg("attempts", static_cast<std::int64_t>(so.report.attempts));
    if (so.exhausted) slab_span.arg("exhausted", 1);
  };

  // One parallel_for index per slab, grain 1: the shared index hands the
  // next slab to whichever thread frees up first, so oversubscribed
  // decompositions self-balance without any cost model, and the caller
  // only ever runs this request's slabs. outs_ is indexed by slab, so the
  // result is byte-identical regardless of which thread runs which slab.
  auto slab_task = [&](std::size_t t) {
    outs_[t].worker = pool_.current_worker();
    {
      // Keyed on the slab index, so a plan fires for this slab no matter
      // which thread runs it.
      par::fault::ScopedKey key(t);
      par::fault::inject(par::fault::Site::kSlabTask);
    }
    run_slab(t, Rung::kHealthy);
  };
  std::vector<par::StealStats> before;
  if (stats_) before = pool_.steal_stats();
  if (!opts_.isolate_faults) {
    // Fail-fast: the first slab failure propagates unchanged.
    pool_.parallel_for(ntasks, slab_task, /*grain=*/1);
  } else {
    DegradationReport task_rep;
    bool task_failed = false;
    try {
      pool_.parallel_for(ntasks, slab_task, /*grain=*/1);
    } catch (...) {
      // A fault fired in the slab task wrapper itself, or a chunk's
      // governance checkpoint tripped: parallel_for aggregated it into one
      // exception and skipped not-yet-started slabs. Recover every lost
      // slab here on the calling thread, starting one rung down the ladder
      // (a governance trip then stops each at the gate and routes it
      // below).
      task_failed = true;
      classify_failure(task_rep);
    }
    if (task_failed) {
      for (std::size_t t = 0; t < ntasks; ++t) {
        SlabOut& so = outs_[t];
        if (so.done) continue;
        so.report = task_rep;
        so.report.attempts = 1;  // the task attempt the fault aborted
        run_slab(t, Rung::kRetrySafe);
      }
    }
    // Exhausted slabs split two ways. Governance-exhausted slabs (the
    // ladder gate tripped on cancel/deadline/budget) must NOT reach the
    // whole-input fallback — recomputing everything sequentially is the
    // most expensive possible response to "stop spending resources".
    // They either become a partial result (allow_partial) or fail the
    // request with the precise governance code. Only fault-exhausted
    // slabs (every rung genuinely failed) take the whole-input rung.
    const SlabOut* first_gov = nullptr;
    bool fault_exhausted = false;
    for (const SlabOut& so : outs_) {
      if (!so.exhausted) continue;
      if (!is_governance(so.report.cause))
        fault_exhausted = true;
      else if (!first_gov)
        first_gov = &so;
    }
    if (first_gov && !opts_.allow_partial) {
      // Prefer the live token state (clean message); fall back to the
      // recorded first governance failure (e.g. a transient budget trip
      // whose sticky state has since cleared).
      par::gov::rethrow_if_stopped();
      throw Error(first_gov->report.cause, first_gov->report.message);
    }
    if (first_gov) {
      partial_.partial = true;
      partial_.cause = first_gov->report.cause;
      partial_.message = first_gov->report.message;
      for (std::size_t t = 0; t < ntasks; ++t) {
        SlabOut& so = outs_[t];
        if (!so.exhausted) continue;
        so.report.rung = Rung::kPartialResult;
        const auto [lo, hi] = extent(t);
        if (!partial_.missing.empty() && partial_.missing.back().last + 1 == t) {
          partial_.missing.back().last = t;
          partial_.missing.back().y_hi = hi;
        } else {
          partial_.missing.push_back({t, t, lo, hi});
        }
      }
    } else if (fault_exhausted) {
      // Final rung: abandon the slab decomposition and recompute the whole
      // request sequentially. Runs keyless so slab-keyed fault plans cannot
      // follow the computation here; a fault that still fires (kAnyKey plan
      // with shots left) means nothing can produce output, and propagates.
      obs::ScopedSpan whole_span(sink, to_string(Rung::kWholeInput),
                                 obs::Cat::kRung);
      whole_span.arg("rung", static_cast<std::int64_t>(Rung::kWholeInput));
      par::fault::ScopedKey key(par::fault::kNoKey);
      geom::PolygonSet whole = seq::vatti_clip(subject, clip, op);
      for (SlabOut& so : outs_) {
        so.result = geom::PolygonSet{};
        so.report.rung = Rung::kWholeInput;
      }
      outs_[0].result = std::move(whole);
    }
  }

  // Pool idle time attributed to this run (pool-counter deltas).
  if (stats_) {
    const std::vector<par::StealStats> after = pool_.steal_stats();
    idle_seconds_.resize(pool_.size());
    for (unsigned i = 0; i < pool_.size(); ++i)
      idle_seconds_[i] = after[i].idle_seconds - before[i].idle_seconds;
  }
}

void SlabRun::finish(const geom::PolygonSet& out, PhaseTimes phases) {
  if (obs::TraceSink* const sink = opts_.trace_sink) {
    std::int64_t degraded = 0;
    for (const SlabOut& so : outs_)
      if (so.report.rung != Rung::kHealthy) ++degraded;
    req_span_.arg("degraded_slabs", degraded);
    sink->add_counter("alg2.requests", 1);
    sink->add_counter("alg2.slabs", static_cast<std::int64_t>(outs_.size()));
    sink->add_counter("alg2.degraded_slabs", degraded);
    sink->observe("alg2.request_seconds", req_timer_.seconds());
    if (partial_.partial) {
      const auto missing = static_cast<std::int64_t>(partial_.missing_slabs());
      req_span_.arg("partial", 1);
      req_span_.arg("missing_slabs", missing);
      sink->add_counter("alg2.partial_requests", 1);
      sink->add_counter("alg2.missing_slabs", missing);
    }
    if (const par::ResourceBudget* b = opts_.cancel.budget())
      sink->observe("gov.peak_budget_bytes", static_cast<double>(b->peak()));
  }
  if (!stats_) return;

  for (const SlabOut& so : outs_) {
    stats_->slabs.push_back(so.load);
    stats_->degradation.push_back(so.report);
    phases.partition_cpu += so.partition_cpu;
    phases.clip_cpu += so.load.cpu_seconds;
  }
  // Per-worker scheduling record: slot i < pool.size() is pool worker i,
  // the last slot is the calling thread (which drives slabs too). Idle
  // times are pool-counter deltas, attributable to this run only when the
  // pool is not shared with concurrent work.
  stats_->workers.assign(pool_.size() + 1, WorkerLoad{});
  for (const SlabOut& so : outs_) {
    const std::size_t slot = so.worker >= 0
                                 ? static_cast<std::size_t>(so.worker)
                                 : pool_.size();
    WorkerLoad& w = stats_->workers[slot];
    ++w.slab_jobs;
    w.busy_seconds += so.partition_seconds + so.load.seconds;
  }
  for (unsigned i = 0; i < pool_.size(); ++i)
    stats_->workers[i].idle_seconds = idle_seconds_[i];
  stats_->phases = phases;
  stats_->output_contours = static_cast<std::int64_t>(out.num_contours());
  stats_->partial = partial_;
}

}  // namespace psclip::mt
