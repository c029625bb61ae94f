#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "geom/bool_op.hpp"
#include "geom/point.hpp"
#include "seq/bounds.hpp"
#include "seq/out_poly.hpp"

namespace psclip::seq {

/// The sweep-status fields shared by the sequential Vatti sweep and by the
/// per-scanbeam processing of Algorithm 1: the current bound edge, the
/// even-odd parity flags to the entry's left (Lemma 1/3), and the output
/// polygon this edge currently extends.
struct SweepEntry {
  std::int32_t e = -1;     ///< bound edge id (index into a BoundTable)
  bool left_s = false;     ///< subject parity to the left
  bool left_c = false;     ///< clip parity to the left
  std::int32_t poly = -1;  ///< out-poly extended by this edge, -1 if none
};

/// Handle the crossing of sweep-status neighbours u (left) and v at point
/// p: emit output vertices by the interior-sector-run rule and leave the
/// two entries' parity flags and poly attachments in their post-swap
/// state. The caller performs the physical swap afterwards.
///
/// This one function replaces Vatti's intersection-vertex classification
/// table: the sectors around p (W, S, E, N) are classified in/out of the
/// boolean result from the parity flags; every maximal interior run of
/// sectors is bounded by two contributing half-edges which connect through
/// p — below+below closes a contour, above+above starts one (exterior ring
/// if the N wedge is interior, hole otherwise), below+above continues one.
/// Self-intersections (u, v from the same input polygon) need no special
/// case: their sector pattern automatically yields the paper's Fig. 5
/// left/right duplication.
void emit_crossing(OutPolyPool& pool, SweepEntry& u, bool u_is_clip,
                   SweepEntry& v, bool v_is_clip, const geom::Point& p,
                   geom::BoolOp op);

// Scanline steps shared by Algorithm 1's per-beam processing
// (core::process_beam) and the windowed Vatti sweep that runs every
// Algorithm 2 slab (seq::vatti_sweep_window). Both hold an x-ordered sweep
// status whose entries are reached through `at(i)` (a SweepEntry& — the
// callers store it inside different records), i in [0, n); `x_at(i)` is
// entry i's x on the scanline.

/// Lemma 2/3's parity prefix: give every entry the subject/clip parity of
/// the entries to its left, from the x-order alone.
template <typename EntryAt>
void label_by_parity(const BoundTable& bt, std::size_t n, EntryAt&& at) {
  bool s = false, c = false;
  for (std::size_t i = 0; i < n; ++i) {
    SweepEntry& a = at(i);
    a.left_s = s;
    a.left_c = c;
    const bool clip = bt.edges[static_cast<std::size_t>(a.e)].is_clip;
    s ^= !clip;
    c ^= clip;
  }
}

/// Call `run(l, r)` for every interior run of a labelled status: l and r
/// are consecutive *contributing* entries (result membership flips across
/// each) with the result's interior between them. Non-contributing entries
/// inside a run are not boundary and own nothing.
template <typename EntryAt, typename Run>
void for_each_interior_run(const BoundTable& bt, std::size_t n, EntryAt&& at,
                           geom::BoolOp op, Run&& run) {
  std::size_t open = n;  // left end of the current run, n = none
  for (std::size_t i = 0; i < n; ++i) {
    const SweepEntry& a = at(i);
    const bool clip = bt.edges[static_cast<std::size_t>(a.e)].is_clip;
    const bool lhs = geom::in_result(a.left_s, a.left_c, op);
    const bool rhs = geom::in_result(a.left_s ^ !clip, a.left_c ^ clip, op);
    if (lhs == rhs) continue;  // not contributing
    if (rhs) {
      open = i;  // interior opens to the right of this entry
    } else if (open < n) {
      run(open, i);
      open = n;
    }
  }
}

/// One beam-internal crossing found by a sweep's inversion enumeration
/// (Lemma 4): bound edge eu is left of ev below the crossing point p.
struct Crossing {
  std::int32_t eu, ev;
  geom::Point p;
};

/// Lemma 4's crossing step, shared by the Vatti sweep and Algorithm 1's
/// per-beam processing; each engine enumerates the beam's crossings its own
/// way into `pending`. The crossings are handled in ascending y of their
/// point: at its own event time every crossing pair is adjacent in the
/// status (all lower crossings have already swapped), which is what makes
/// the sector emission sound. Handling them in enumeration order instead
/// connects boundaries wrongly when three edges cross pairwise in one beam.
///
/// `pos_of(e)` is edge e's current status index and `swap(i, j)` exchanges
/// entries i and j (with whatever position index the caller keeps).
/// `deferred` is scratch; both buffers keep their capacity.
template <typename EntryAt, typename PosOf, typename Swap>
void process_crossings(OutPolyPool& pool, const BoundTable& bt, std::size_t n,
                       EntryAt&& at, PosOf&& pos_of, Swap&& swap,
                       std::vector<Crossing>& pending,
                       std::vector<Crossing>& deferred, geom::BoolOp op) {
  // Stable by crossing y. A beam's list is a handful of crossings: an
  // insertion sort orders it in place, where std::stable_sort would
  // allocate a buffer every beam.
  for (std::size_t i = 1; i < pending.size(); ++i) {
    const Crossing c = pending[i];
    std::size_t j = i;
    for (; j > 0 && c.p.y < pending[j - 1].p.y; --j)
      pending[j] = pending[j - 1];
    pending[j] = c;
  }
  // Emit at the pair's current slots (roles flip with the current order)
  // and swap them; false, doing nothing, if they are not adjacent.
  auto cross = [&](const Crossing& ev, bool forced) {
    std::size_t iu = pos_of(ev.eu);
    std::size_t iv = pos_of(ev.ev);
    if (iu > iv) std::swap(iu, iv);
    if (!forced && iu + 1 != iv) return false;
    SweepEntry& u = at(iu);
    SweepEntry& v = at(iv);
    emit_crossing(pool, u, bt.edges[static_cast<std::size_t>(u.e)].is_clip,
                  v, bt.edges[static_cast<std::size_t>(v.e)].is_clip, ev.p,
                  op);
    swap(iu, iv);
    return true;
  };
  while (!pending.empty()) {
    bool progress = false;
    deferred.clear();
    for (const Crossing& ev : pending) {
      if (cross(ev, false))
        progress = true;
      else
        deferred.push_back(ev);
    }
    pending.swap(deferred);
    if (!progress && !pending.empty()) {
      // Degenerate ties interlocked (nearly coincident crossing points,
      // e.g. three edges through one point). Force-process the remaining
      // events in order: emit on the pair as if adjacent, swap, and
      // rebuild every parity flag from the status order — best-effort
      // emission at a degenerate point, but contours stay attached and
      // close (dropping emissions here loses whole output rings).
      for (const Crossing& ev : pending) {
        cross(ev, true);
        label_by_parity(bt, n, at);
      }
      pending.clear();
    }
  }
}

/// Open one partial contour along scanline y for every interior run of a
/// labelled status: the run's two entries own its two ends, and the
/// contour starts as the run's stretch of the line (its bottom side; see
/// OutPolyPool::create_on_line).
///
/// A run whose two edges meet on the line in rounding and start at one
/// vertex below it opens at that vertex instead: the minimum lies closer to
/// the line than the line's x-resolution, so the sliver between it and the
/// line has no width, and the minimum is where vatti_clip puts the corner.
/// close_line_runs mirrors this for a maximum just above the line.
template <typename EntryAt, typename XAt>
void open_line_runs(OutPolyPool& pool, const BoundTable& bt, std::size_t n,
                    EntryAt&& at, XAt&& x_at, double y, geom::BoolOp op) {
  for_each_interior_run(bt, n, at, op, [&](std::size_t l, std::size_t r) {
    SweepEntry& el = at(l);
    SweepEntry& er = at(r);
    geom::Point pl{x_at(l), y};
    geom::Point pr{x_at(r), y};
    const geom::Point& bot = bt.edges[static_cast<std::size_t>(el.e)].bot;
    if (pl == pr && bot == bt.edges[static_cast<std::size_t>(er.e)].bot)
      pl = pr = bot;
    const std::int32_t id = pool.create_on_line(pl, el.e, er.e);
    if (!(pr == pl)) pool.extend(id, er.e, pr);
    el.poly = id;
    er.poly = id;
  });
}

/// Close every interior run along scanline y: join the partial contours
/// its two entries extend through the run's stretch of the line (its top
/// side), or at the maximum both edges end at when they meet on the line
/// in rounding (see open_line_runs). Runs whose entries own no contour —
/// only after the degenerate crossing-tie fallback — are skipped.
template <typename EntryAt, typename XAt>
void close_line_runs(OutPolyPool& pool, const BoundTable& bt, std::size_t n,
                     EntryAt&& at, XAt&& x_at, double y, geom::BoolOp op) {
  for_each_interior_run(bt, n, at, op, [&](std::size_t l, std::size_t r) {
    const SweepEntry& el = at(l);
    const SweepEntry& er = at(r);
    if (el.poly < 0 || er.poly < 0) return;
    geom::Point pl{x_at(l), y};
    geom::Point pr{x_at(r), y};
    const geom::Point& top = bt.edges[static_cast<std::size_t>(el.e)].top;
    if (pl == pr && top == bt.edges[static_cast<std::size_t>(er.e)].top)
      pl = pr = top;
    if (!(pl == pr)) pool.extend(el.poly, el.e, pl);
    pool.close(el.poly, el.e, er.poly, er.e, pr);
  });
}

}  // namespace psclip::seq
