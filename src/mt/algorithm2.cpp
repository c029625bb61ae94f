#include "mt/algorithm2.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/merge.hpp"
#include "error.hpp"
#include "mt/slab_index.hpp"
#include "obs/trace.hpp"
#include "parallel/cancel.hpp"
#include "parallel/fault.hpp"
#include "parallel/timing.hpp"
#include "seq/bounds.hpp"
#include "seq/vatti.hpp"

namespace psclip::mt {
namespace {

/// Slabs per pool thread when Alg2Options::slabs is 0. The pool hands the
/// slabs out one at a time, so a worker that finishes early takes the next
/// slab instead of idling while the heaviest one finishes (Fig. 11).
constexpr unsigned kSlabsPerThread = 4;

// The per-slab degradation ladder, most to least optimistic.
constexpr Rung kLadder[] = {Rung::kHealthy, Rung::kRetrySafe};

/// Small contours are prepared, and the table is copied, in pool tasks of
/// about this many vertices (edges).
constexpr std::size_t kPrepareBatchVertices = 4096;

/// Outcome of one slab task.
struct SlabOut {
  geom::PolygonSet result;
  SlabLoad load;
  DegradationReport report;
  par::PhaseClock::Reading cut;  ///< the partition step's clock reading
  int worker = -1;  ///< pool worker that executed the slab (-1 = caller)
  bool done = false;       ///< slab task body ran (vs. lost to a task fault)
  bool exhausted = false;  ///< every per-slab ladder rung failed
};

/// Bytes a vector's storage holds.
template <class T>
std::size_t capacity_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// Free `v`'s storage when it could hold more than twice `n` elements, so
/// a retained buffer keeps at most twice what the current call needs of
/// it. The caller then sizes `v` as before.
template <class T>
void release_if_over(std::vector<T>& v, std::size_t n) {
  if (v.capacity() > 2 * n) std::vector<T>().swap(v);
}

/// Bytes of a prepared fragment's storage: its vectors' capacities, or,
/// with `used`, their sizes.
std::size_t fragment_bytes(const seq::PreparedContour& pc, bool used) {
  const auto bytes = [used](const auto& v) {
    return (used ? v.size() : v.capacity()) * sizeof(v[0]);
  };
  return bytes(pc.pts.pts) + bytes(pc.bt.edges) + bytes(pc.bt.minima) +
         bytes(pc.ys);
}

/// The prologue's storage (Steps 1–5): the contours' prepared fragments
/// (without a prepared cache), the shared bound table, its schedule and
/// bound heads, and the per-fragment offsets the table is assembled at.
/// SetupLease keeps one instance for the whole process, so a call no
/// larger than the one before builds its prologue in storage that is
/// already allocated and paged in. Every vector is rewritten before it is
/// read, so what an earlier call left in it never shows. Each call leaves
/// every buffer, and every fragment, holding at most twice what that call
/// used of it (release_if_over, trim_fragments): a larger earlier request
/// is not kept.
struct SetupScratch {
  /// Per contour, subject contours first: its fragment, null when it
  /// degenerates. Points into `own` or at the call's cached fragments.
  std::vector<const seq::PreparedContour*> prep;
  /// The fragments a call without a prepared cache prepares, by contour.
  std::vector<seq::PreparedContour> own;
  std::vector<std::size_t> task_begin;  ///< each prepare task's first contour
  /// The table's fragments in contour order, degenerate ones dropped, and
  /// the prefix sums of their edge, minima and schedule counts: fragment f
  /// starts at edge_at[f], min_at[f] and ys_at[f] of the table. ys_at
  /// doubles as the schedule merge's run ends, which it consumes.
  std::vector<const seq::PreparedContour*> frags;
  std::vector<std::size_t> edge_at, min_at, ys_at;
  seq::BoundTable bt;
  std::vector<double> ys;  ///< the table's sorted distinct event ordinates
  std::vector<double> merge_buf;    ///< merge_sorted_runs_unique's buffer
  std::vector<std::int32_t> heads;  ///< bound heads (mt::bound_heads)

  /// Bytes the storage holds (capacities), fragments included.
  [[nodiscard]] std::size_t resident_bytes() const {
    std::size_t b = capacity_bytes(prep) + capacity_bytes(own) +
                    capacity_bytes(task_begin) + capacity_bytes(frags) +
                    capacity_bytes(edge_at) + capacity_bytes(min_at) +
                    capacity_bytes(ys_at) + capacity_bytes(bt.edges) +
                    capacity_bytes(bt.minima) + capacity_bytes(ys) +
                    capacity_bytes(merge_buf) + capacity_bytes(heads);
    for (const seq::PreparedContour& pc : own)
      b += fragment_bytes(pc, /*used=*/false);
    return b;
  }
};

/// One call's claim on the process-wide SetupScratch. A call that finds it
/// taken — a concurrent request, or a slab_clip run inside a prepared
/// source's prepared() — builds its prologue in storage of its own,
/// allocated for the call and freed after it. One slot rather than one
/// per thread: each client thread of a service would otherwise keep its
/// largest prologue for good.
class SetupLease {
 public:
  SetupLease()
      : claimed_(!claimed().exchange(true, std::memory_order_acquire)),
        own_(claimed_ ? nullptr : std::make_unique<SetupScratch>()) {}
  ~SetupLease() {
    if (claimed_) claimed().store(false, std::memory_order_release);
  }
  SetupLease(const SetupLease&) = delete;
  SetupLease& operator=(const SetupLease&) = delete;

  /// The call holds the retained slot (else its own storage).
  [[nodiscard]] bool retained() const { return claimed_; }
  [[nodiscard]] SetupScratch& scratch() const {
    return claimed_ ? slot() : *own_;
  }

 private:
  static std::atomic<bool>& claimed() {
    static std::atomic<bool> flag{false};
    return flag;
  }
  static SetupScratch& slot() {
    static SetupScratch retained;
    return retained;
  }

  const bool claimed_;
  const std::unique_ptr<SetupScratch> own_;
};

/// Minor page faults the whole process has taken so far.
std::int64_t process_minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

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

/// Prepare every subject and clip contour into `s.prep` (subject contours
/// first) on the pool in one pass: fetched from `cache` and held alive in
/// `held` when it is non-null, else prepared into `s.own`. Tasks are
/// weighted by vertex count: runs of small contours are batched into
/// tasks of about kPrepareBatchVertices vertices and a larger contour is a
/// task of its own (its fragment storage reserved on the calling thread),
/// so a pair of giant contours does not land on one worker. Each fragment
/// is seq::prepare_contour's for its contour.
void prepare_inputs(
    par::ThreadPool& pool, const geom::PolygonSet& subject,
    const geom::PolygonSet& clip, SetupScratch& s,
    std::vector<std::shared_ptr<const seq::PreparedContour>>& held,
    seq::PreparedSource* cache) {
  // Contour g < nsub is subject contour g, the rest are clip contours.
  const std::size_t nsub = subject.num_contours();
  const std::size_t total = nsub + clip.num_contours();
  release_if_over(s.prep, total);
  s.prep.assign(total, nullptr);
  // Fragments past this call's contours are freed; those it prepares are
  // trimmed after the table copy (trim_fragments).
  const std::size_t nown = cache ? 0 : total;
  release_if_over(s.own, nown);
  s.own.resize(nown);
  if (cache) held.resize(total);
  const auto contour_at = [&](std::size_t g) -> const geom::Contour& {
    return g < nsub ? subject.contours[g] : clip.contours[g - nsub];
  };
  const auto prepare_one = [&](std::size_t g) {
    const bool is_clip = g >= nsub;
    if (cache) {
      held[g] = cache->prepared(contour_at(g), is_clip);
      s.prep[g] = held[g].get();
    } else if (seq::prepare_contour(contour_at(g), is_clip, s.own[g])) {
      s.prep[g] = &s.own[g];
    }
  };
  // Task t prepares contours [task_begin[t], task_begin[t + 1]).
  std::vector<std::size_t>& task_begin = s.task_begin;
  release_if_over(task_begin, total + 1);
  task_begin.assign(1, 0);
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
        seq::PreparedContour& pc = s.own[g];
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

/// Step 3's shared table from the fragments in `s.prep`, in contour order:
/// byte for byte the table vatti_clip builds before its minima sort, the
/// fragments' schedule runs back to back in `s.ys` (run ends in
/// `s.ys_at`) and the bound heads in `s.heads`. A serial pass prefix-sums
/// the fragments' edge, minima and schedule counts into their offsets in
/// the table (the count/allocate step of Lemma 3); the copy then runs on
/// the pool in tasks of kPrepareBatchVertices edges, so runs of small
/// fragments share a task and a giant one is split. A task copies its
/// edges with their `next` links rebased, and of each fragment it
/// touches the same share of the minima (edge ids rebased, heads written)
/// and of the schedule run, so the pieces of a split fragment tile it.
/// The vectors are resized, not cleared: a table the size of the last one
/// is written once. Returns whether every fragment is finite.
bool assemble_table(par::ThreadPool& pool, SetupScratch& s) {
  const std::size_t nfrags =
      s.prep.size() - static_cast<std::size_t>(
                          std::count(s.prep.begin(), s.prep.end(), nullptr));
  release_if_over(s.frags, nfrags);
  s.frags.clear();
  for (std::vector<std::size_t>* at : {&s.edge_at, &s.min_at, &s.ys_at}) {
    release_if_over(*at, nfrags + 1);
    at->assign(1, 0);
  }
  bool finite = true;
  for (const seq::PreparedContour* pc : s.prep) {
    if (!pc) continue;  // degenerate after cleaning: no bounds
    finite = finite && pc->finite;
    s.frags.push_back(pc);
    s.edge_at.push_back(s.edge_at.back() + pc->bt.edges.size());
    s.min_at.push_back(s.min_at.back() + pc->bt.minima.size());
    s.ys_at.push_back(s.ys_at.back() + pc->ys.size());
  }
  const std::size_t nedges = s.edge_at.back();
  const auto size_to = [](auto& v, std::size_t n) {
    release_if_over(v, n);
    v.resize(n);
  };
  size_to(s.bt.edges, nedges);
  size_to(s.bt.minima, s.min_at.back());
  size_to(s.heads, 2 * s.min_at.back());
  size_to(s.ys, s.ys_at.back());

  // Fragment f's edges [a, b): its minima [a·m/n, b·m/n) and schedule
  // values [a·v/n, b·v/n) of m and v go with them.
  const auto copy_piece = [&s](std::size_t f, std::size_t a, std::size_t b) {
    const seq::PreparedContour& pc = *s.frags[f];
    const std::size_t n = pc.bt.edges.size();
    if (n == 0) return;  // no bounds: no minima, no schedule values either
    const auto base = static_cast<std::int32_t>(s.edge_at[f]);
    seq::BoundEdge* const edges = s.bt.edges.data() + s.edge_at[f];
    for (std::size_t i = a; i < b; ++i) {
      seq::BoundEdge e = pc.bt.edges[i];
      if (e.next >= 0) e.next += base;
      edges[i] = e;
    }
    const std::size_t m = pc.bt.minima.size();
    for (std::size_t i = a * m / n, end = b * m / n; i < end; ++i) {
      seq::LocalMin lm = pc.bt.minima[i];
      lm.edge_left += base;
      lm.edge_right += base;
      const std::size_t k = s.min_at[f] + i;
      s.bt.minima[k] = lm;
      s.heads[2 * k] = std::min(lm.edge_left, lm.edge_right);
      s.heads[2 * k + 1] = std::max(lm.edge_left, lm.edge_right);
    }
    const std::size_t v = pc.ys.size();
    std::copy(pc.ys.data() + a * v / n, pc.ys.data() + b * v / n,
              s.ys.data() + s.ys_at[f] + a * v / n);
  };
  pool.parallel_for(
      (nedges + kPrepareBatchVertices - 1) / kPrepareBatchVertices,
      [&](std::size_t t) {
        const std::size_t lo = t * kPrepareBatchVertices;
        const std::size_t hi = std::min(nedges, lo + kPrepareBatchVertices);
        // The last fragment starting at or before lo holds edge lo.
        auto f = static_cast<std::size_t>(
            std::upper_bound(s.edge_at.begin(), s.edge_at.end(), lo) -
            s.edge_at.begin() - 1);
        for (; f < s.frags.size() && s.edge_at[f] < hi; ++f)
          copy_piece(f, std::max(lo, s.edge_at[f]) - s.edge_at[f],
                     std::min(hi, s.edge_at[f + 1]) - s.edge_at[f]);
      },
      /*grain=*/1);
  return finite;
}

/// After the table copy, free every no-cache fragment whose storage holds
/// more than twice what this call used of it: a fragment left by an
/// earlier, larger contour at the same index is not kept.
void trim_fragments(SetupScratch& s) {
  for (seq::PreparedContour& pc : s.own)
    if (fragment_bytes(pc, /*used=*/false) >
        2 * fragment_bytes(pc, /*used=*/true))
      pc = seq::PreparedContour{};
}

/// The slab's pieces end at its lines: it completed on a per-slab rung
/// (not abandoned for a partial result, not replaced by the whole-input
/// recompute).
bool swept(const SlabOut& so) {
  return so.report.rung == Rung::kHealthy ||
         so.report.rung == Rung::kRetrySafe;
}

/// One slab_clip call: its inputs, the read-only bound table and slab cut
/// every slab sweeps, and each slab's outcome.
struct SlabClip {
  const geom::PolygonSet& subject;
  const geom::PolygonSet& clip;
  const geom::BoolOp op;
  par::ThreadPool& pool;
  const Alg2Options& opts;
  obs::TraceSink* const sink = opts.trace_sink;

  /// The prologue's storage: the retained slot when no other call holds it.
  const SetupLease lease{};
  SetupScratch& store = lease.scratch();
  seq::BoundTable& bt = store.bt;
  std::vector<double>& ys = store.ys;  ///< sorted distinct event ordinates
  SlabIndex index{{}, {0}, {}, {}};
  bool finite = true;
  std::vector<SlabOut> outs{};  ///< index-aligned with the slabs
  PartialReport partial{};

  /// Steps 1–5 into `p` slabs, under the alg2.setup span `setup_id`.
  void setup(unsigned p, obs::SpanId setup_id) {
    // One setup step, clocked only when traced. A step that runs on a pool
    // helper is charged to the setup once, by the pool.
    const auto step = [&](const char* name, const auto& fn) {
      if (!sink) return fn();
      par::PhaseClock clock(sink, name, obs::Cat::kPhase, setup_id);
      fn();
    };

    // Steps 1–3: prepare every contour once (clean + coalesce + perturb +
    // bound decomposition + per-contour schedule).
    std::vector<std::shared_ptr<const seq::PreparedContour>> held;
    step("alg2.prepare", [&] {
      prepare_inputs(pool, subject, clip, store, held, opts.prepared_cache);
    });

    // One read-only bound table for every slab — byte for byte the table
    // vatti_clip builds — and its schedule merged from the fragments' runs.
    step("alg2.table", [&] {
      finite = assemble_table(pool, store);
      trim_fragments(store);
    });

    // The minima sort beside Steps 4–5 — the schedule merge, then the slab
    // lines and every line's seed edges: the index needs the edges and the
    // heads, not the sorted minima. The index allocates, so it is index 0,
    // which this thread usually claims. A non-finite vertex poisons every
    // ordering; the slabs then fail their attempts and the request takes
    // the whole-input rung.
    pool.parallel_for(
        2,
        [&](std::size_t task) {
          if (task == 1)
            return step("alg2.sort_minima", [&] { seq::sort_minima(bt); });
          if (!finite) return;
          step("alg2.schedule", [&] {
            release_if_over(store.merge_buf, ys.size());
            seq::merge_sorted_runs_unique(ys, store.ys_at, store.merge_buf);
          });
          step("alg2.index", [&] {
            index = build_slab_index(pool, bt, store.heads, ys, p);
          });
        },
        /*grain=*/1);
  }

  /// Steps 4–6 for slab `t` on one ladder rung: cut the slab's window out
  /// of the shared table — its seeds, minima range and schedule slice —
  /// and sweep it. kHealthy sweeps on the thread's reused scratch
  /// (seq::thread_scratch), kRetrySafe on a fresh one; the cut and the
  /// sweep are otherwise the same, so the two rungs are byte-identical.
  /// Throws on any failure — injected faults, resource exhaustion, or a
  /// non-finite coordinate caught by the post-checks — with `so` reset so
  /// the next rung starts clean.
  void attempt(std::size_t t, SlabOut& so, Rung rung) const {
    par::gov::checkpoint_now();
    so.result = geom::PolygonSet{};
    so.load = SlabLoad{};
    so.cut = {};
    // Memory budget (DESIGN.md §11): the attempt holds a charge for its
    // window's working set by size (seq::window_bytes), raised before the
    // sweep and released when the attempt ends (success or unwind). It is
    // a function of the window alone, not of the capacity the thread's
    // scratch kept from earlier sweeps, so the outcome does not depend on
    // the thread's history; concurrent attempts charge the sum of theirs.
    // The sweep charges its output on top.
    par::gov::ScopedCharge arena_charge;
    par::PhaseClock part(sink, "alg2.slab_partition");
    par::fault::inject(par::fault::Site::kSlabCut);
    if (!finite || par::fault::corrupt(par::fault::Site::kSlabCut))
      throw Error(ErrorCode::kNonFinite,
                  "non-finite vertex in slab " + std::to_string(t) +
                      " partition output");
    const std::size_t nslabs = index.num_slabs();
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
    if (rung == Rung::kHealthy) par::fault::inject(par::fault::Site::kArena);
    seq::VattiScratch& scratch =
        rung == Rung::kHealthy ? seq::thread_scratch() : fresh.emplace();
    arena_charge.raise_to(seq::window_bytes(bt, w));
    part.span().arg("seeds", static_cast<std::int64_t>(w.seeds.size()));
    so.cut = part.stop();

    par::PhaseClock sweep(sink, "alg2.slab_sweep");
    seq::VattiStats vs;
    so.result = seq::vatti_sweep_window(bt, w, op, &vs, scratch);
    if (rung == Rung::kHealthy &&
        par::fault::corrupt(par::fault::Site::kArena)) {
      const double nan = std::numeric_limits<double>::quiet_NaN();
      so.result.add({{nan, nan}, {0.0, 0.0}, {1.0, 1.0}});
    }
    sweep.span().arg("input_edges", vs.edges);
    sweep.span().arg("output_vertices", vs.output_vertices);
    const par::PhaseClock::Reading sweep_time = sweep.stop();
    so.load.seconds = sweep_time.wall;
    so.load.cpu_seconds = sweep_time.cpu;
    so.load.input_edges = vs.edges;
    so.load.boundary_edges = vs.boundary_edges;
    so.load.output_vertices = vs.output_vertices;
    so.load.peak_arena_bytes =
        static_cast<std::int64_t>(scratch.resident_bytes());
    if (sink) {
      sink->observe("alg2.slab_clip_seconds", so.load.seconds);
      sink->observe("alg2.slab_peak_arena_bytes",
                    static_cast<double>(so.load.peak_arena_bytes));
    }
    if (!geom::is_finite(so.result))
      throw Error(ErrorCode::kNonFinite,
                  "non-finite vertex in slab " + std::to_string(t) +
                      " clip output");
  }

  /// Walk slab `t` down the ladder starting at `first`. Records rung
  /// reached / attempt count / first cause in so.report; flags the slab
  /// exhausted when every rung fails. Never throws.
  void walk_ladder(std::size_t t, SlabOut& so, Rung first) const {
    so.done = true;
    bool recorded = !so.report.message.empty();
    for (const Rung rung : kLadder) {
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
  }

  /// Slab `t` from rung `first`, under its slab span. The slab span
  /// parents to the clip-phase span `clip_id` *explicitly*: that span
  /// lives on the calling thread while slab tasks run on whichever thread
  /// claims them, so implicit (same-thread) nesting cannot link them.
  void run_slab(std::size_t t, Rung first, obs::SpanId clip_id) {
    SlabOut& so = outs[t];
    obs::ScopedSpan slab_span(sink, "alg2.slab", obs::Cat::kSlab, clip_id);
    slab_span.arg("slab", static_cast<std::int64_t>(t));
    slab_span.arg("worker", so.worker);
    // Deterministic fault key: a plan keyed on slab index t fires for
    // this slab no matter which worker the scheduler hands it to.
    par::fault::ScopedKey key(t);
    if (first == Rung::kHealthy) so.report.attempts = 0;
    walk_ladder(t, so, first);
    slab_span.arg("rung", static_cast<std::int64_t>(so.report.rung));
    slab_span.arg("attempts", static_cast<std::int64_t>(so.report.attempts));
    if (so.exhausted) slab_span.arg("exhausted", 1);
  }

  /// Step 6: every slab walks the ladder behind its governance gate; slabs
  /// a task fault lost are recovered on the calling thread from
  /// kRetrySafe; exhausted slabs are then settled.
  void run_slabs(obs::SpanId clip_id) {
    const std::size_t nslabs = index.num_slabs();
    outs.assign(nslabs, SlabOut{});
    // One parallel_for index per slab, grain 1: the shared index hands the
    // next slab to whichever thread frees up first, and the caller only
    // ever runs this request's slabs. outs is indexed by slab, so the
    // result is byte-identical regardless of which thread runs which slab.
    DegradationReport task_rep;
    bool task_failed = false;
    try {
      pool.parallel_for(
          nslabs,
          [&](std::size_t t) {
            outs[t].worker = pool.current_worker();
            {
              par::fault::ScopedKey key(t);
              par::fault::inject(par::fault::Site::kSlabTask);
            }
            run_slab(t, Rung::kHealthy, clip_id);
          },
          /*grain=*/1);
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
      for (std::size_t t = 0; t < nslabs; ++t) {
        SlabOut& so = outs[t];
        if (so.done) continue;
        so.report = task_rep;
        so.report.attempts = 1;  // the task attempt the fault aborted
        run_slab(t, Rung::kRetrySafe, clip_id);
      }
    }
    settle();
  }

  /// Exhausted slabs split two ways. Governance-exhausted slabs (the
  /// ladder gate tripped on cancel/deadline/budget) must NOT reach the
  /// whole-input fallback — recomputing everything sequentially is the
  /// most expensive possible response to "stop spending resources". They
  /// either become a partial result (allow_partial) or fail the request
  /// with the precise governance code. Only fault-exhausted slabs (every
  /// rung genuinely failed) take the whole-input rung.
  void settle() {
    const SlabOut* first_gov = nullptr;
    bool fault_exhausted = false;
    for (const SlabOut& so : outs) {
      if (!so.exhausted) continue;
      if (!is_governance(so.report.cause))
        fault_exhausted = true;
      else if (!first_gov)
        first_gov = &so;
    }
    if (first_gov && !opts.allow_partial) {
      // Prefer the live token state (clean message); fall back to the
      // recorded first governance failure (e.g. a transient budget trip
      // whose sticky state has since cleared).
      par::gov::checkpoint_now();
      throw Error(first_gov->report.cause, first_gov->report.message);
    }
    if (first_gov) {
      partial.partial = true;
      partial.cause = first_gov->report.cause;
      partial.message = first_gov->report.message;
      // A slab's y-extent: its lines, with the schedule's ends standing in
      // for the unbounded outer sides.
      for (std::size_t t = 0; t < outs.size(); ++t) {
        SlabOut& so = outs[t];
        if (!so.exhausted) continue;
        so.report.rung = Rung::kPartialResult;
        const double lo = t > 0 ? index.lines[t - 1]
                                : (ys.empty() ? 0.0 : ys.front());
        const double hi = t + 1 < outs.size() ? index.lines[t]
                                              : (ys.empty() ? 0.0 : ys.back());
        if (!partial.missing.empty() && partial.missing.back().last + 1 == t) {
          partial.missing.back().last = t;
          partial.missing.back().y_hi = hi;
        } else {
          partial.missing.push_back({t, t, lo, hi});
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
      for (SlabOut& so : outs) {
        so.result = geom::PolygonSet{};
        so.report.rung = Rung::kWholeInput;
      }
      outs[0].result = std::move(whole);
    }
  }
};

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
  std::vector<double> weld_ys;  // ascending, as the lines are
  for (std::size_t j = 0; j < lines.size(); ++j)
    if (welded(j)) weld_ys.push_back(lines[j]);
  // No vertex compares equal to NaN.
  constexpr double kNoLine = std::numeric_limits<double>::quiet_NaN();
  geom::PolygonSet out;
  std::vector<geom::Contour> touched;
  for (std::size_t t = 0; t < outs.size(); ++t) {
    // Slab t's pieces can only touch its own two lines.
    const double lo = t > 0 && welded(t - 1) ? lines[t - 1] : kNoLine;
    const double hi = t < lines.size() && welded(t) ? lines[t] : kNoLine;
    for (geom::Contour& c : outs[t].result.contours) {
      const bool touches = std::any_of(
          c.pts.begin(), c.pts.end(),
          [&](const geom::Point& q) { return q.y == lo || q.y == hi; });
      (touches ? touched : out.contours).push_back(std::move(c));
    }
  }
  if (touched.empty()) return out;
  // The slabs are complete: the weld is a short fixed cost that runs
  // ungoverned, so a deadline cannot discard finished slabs at the merge.
  const par::gov::ScopedToken ungoverned{par::CancelToken{}};
  for (geom::Contour& ring : core::weld_seams(pool, touched, weld_ys).contours)
    out.contours.push_back(std::move(ring));
  return out;
}

}  // namespace

geom::PolygonSet slab_clip(const geom::PolygonSet& subject,
                           const geom::PolygonSet& clip, geom::BoolOp op,
                           par::ThreadPool& pool, const Alg2Options& opts,
                           Alg2Stats* stats) {
  // A reused stats object must not carry the previous run's record into a
  // call that returns early (empty input) or throws.
  if (stats) *stats = Alg2Stats{};
  // parallel_for re-installs the token inside every chunk it runs, so
  // checkpoints fire on all workers; a null token inherits the caller's.
  std::optional<par::gov::ScopedToken> gov_scope;
  if (opts.cancel.valid()) gov_scope.emplace(opts.cancel);
  par::gov::checkpoint_now();  // an already-dead request does no work
  obs::TraceSink* const sink = opts.trace_sink;
  par::PhaseClock request(sink, "alg2.slab_clip", obs::Cat::kRequest);
  if (subject.num_vertices() + clip.num_vertices() == 0) return {};

  // Fig. 9's categories: wall = the calling thread's sections (setup /
  // parallel region / merge); cpu = the phase's CPU on every thread.
  PhaseTimes phases;
  SlabClip run{subject, clip, op, pool, opts};
  {
    par::PhaseClock setup(sink, "alg2.setup");
    const std::int64_t faults_before = sink ? process_minor_faults() : 0;
    run.setup(opts.slabs ? opts.slabs : kSlabsPerThread * pool.size(),
              setup.span().id());
    setup.span().arg("seeds",
                     static_cast<std::int64_t>(run.index.seeds.size()));
    setup.span().arg("retained_slot",
                     static_cast<std::int64_t>(run.lease.retained()));
    if (sink) {
      // The process's minor page faults across Steps 1–5 (work running
      // beside this call on other threads counts too) and the bytes its
      // prologue storage holds after them.
      setup.span().arg("minor_faults",
                       process_minor_faults() - faults_before);
      setup.span().arg("slot_bytes", static_cast<std::int64_t>(
                                         run.store.resident_bytes()));
    }
    const par::PhaseClock::Reading r = setup.stop();
    phases.partition = r.wall;
    phases.partition_cpu = r.cpu;
  }
  request.span().arg("slabs",
                     static_cast<std::int64_t>(run.index.num_slabs()));
  request.span().arg("vertices",
                     static_cast<std::int64_t>(subject.num_vertices() +
                                               clip.num_vertices()));
  request.span().arg("op", static_cast<std::int64_t>(op));

  // Pool idle time over the slab section, from pool-counter deltas.
  std::vector<par::StealStats> idle_before, idle_after;
  if (stats) idle_before = pool.steal_stats();
  {
    par::PhaseClock clip_clock(sink, "alg2.clip");
    run.run_slabs(clip_clock.span().id());
    phases.clip = clip_clock.stop().wall;
  }
  if (stats) idle_after = pool.steal_stats();

  // Step 8: weld the seams.
  geom::PolygonSet out;
  {
    par::PhaseClock merge(sink, "alg2.merge");
    out = merge_slabs(run.outs, run.index.lines, pool);
    merge.span().arg("output_contours",
                     static_cast<std::int64_t>(out.num_contours()));
    const par::PhaseClock::Reading r = merge.stop();
    phases.merge = r.wall;
    phases.merge_cpu = r.cpu;
  }

  if (sink) {
    std::int64_t degraded = 0;
    for (const SlabOut& so : run.outs)
      if (so.report.rung != Rung::kHealthy) ++degraded;
    request.span().arg("degraded_slabs", degraded);
    sink->add_counter("alg2.requests", 1);
    sink->add_counter("alg2.slabs", static_cast<std::int64_t>(run.outs.size()));
    sink->add_counter("alg2.degraded_slabs", degraded);
    if (run.partial.partial) {
      const auto missing =
          static_cast<std::int64_t>(run.partial.missing_slabs());
      request.span().arg("partial", 1);
      request.span().arg("missing_slabs", missing);
      sink->add_counter("alg2.partial_requests", 1);
      sink->add_counter("alg2.missing_slabs", missing);
    }
    if (const par::ResourceBudget* b = opts.cancel.budget())
      sink->observe("gov.peak_budget_bytes", static_cast<double>(b->peak()));
    sink->observe("alg2.request_seconds", request.stop().wall);
  }
  if (!stats) return out;

  for (const SlabOut& so : run.outs) {
    stats->slabs.push_back(so.load);
    stats->degradation.push_back(so.report);
    phases.partition_cpu += so.cut.cpu;
    phases.clip_cpu += so.load.cpu_seconds;
  }
  // Per-worker scheduling record: slot i < pool.size() is pool worker i,
  // the last slot is the calling thread (which drives slabs too). Idle
  // times are pool-counter deltas, attributable to this run only when the
  // pool is not shared with concurrent work.
  stats->workers.assign(pool.size() + 1, WorkerLoad{});
  for (const SlabOut& so : run.outs) {
    const std::size_t slot = so.worker >= 0
                                 ? static_cast<std::size_t>(so.worker)
                                 : pool.size();
    WorkerLoad& w = stats->workers[slot];
    ++w.slab_jobs;
    w.busy_seconds += so.cut.wall + so.load.seconds;
  }
  for (unsigned i = 0; i < pool.size(); ++i)
    stats->workers[i].idle_seconds =
        idle_after[i].idle_seconds - idle_before[i].idle_seconds;
  stats->phases = phases;
  stats->output_contours = static_cast<std::int64_t>(out.num_contours());
  stats->partial = run.partial;
  return out;
}

}  // namespace psclip::mt
