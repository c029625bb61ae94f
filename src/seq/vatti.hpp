#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "geom/bool_op.hpp"
#include "geom/polygon.hpp"

namespace psclip::seq {

/// Counters reported by the sweep, used by tests and by the benchmark
/// harness (they correspond to the quantities n, k, m in the paper's
/// complexity analysis).
struct VattiStats {
  std::int64_t scanbeams = 0;       ///< m: number of scanbeams processed
  /// n: bound edges that entered the active edge table — every edge of
  /// both inputs for a whole-input sweep; a window's seeds plus the edges
  /// its minima and chains brought in for vatti_sweep_window.
  std::int64_t edges = 0;
  std::int64_t intersections = 0;   ///< k: pairwise edge crossings handled
  std::int64_t output_vertices = 0; ///< vertices in the result contours
  std::int64_t max_aet = 0;         ///< peak active edge table size
  /// Beams whose sort to the top scanline's x-order makes zero swaps (no
  /// crossings). The sweep finds them without looking at the whole AET:
  /// only the pairs whose order certificate expired, or that are new, are
  /// compared.
  std::int64_t sorted_beams = 0;
  /// Suffix refreshes of the flat edge-id -> AET-index position array: one
  /// per structural AET edit batch, i.e. per minima merge, per beam whose
  /// top removes edges, and per window seeding.
  std::int64_t pos_rebuilds = 0;
  /// Σ|AET| over the beams: the edge-beam slots a sweep that evaluated
  /// every active edge on every scanline would visit. The sweep no longer
  /// does; the counter stays as the slab cost model's width measure.
  std::int64_t aet_visits = 0;
  /// x positions the sweep evaluated: the minima bisections, the pairs
  /// whose order certificate expired or that are new, the runs of the beam
  /// sort that move, the seeds and the window's top line. Output-sensitive
  /// — it grows with edges + crossings, not with aet_visits.
  std::int64_t x_evals = 0;
  /// AET entries the beam-top step examined: the edges ending at the beam
  /// top, the slots its local-maximum partner scans looked at and the
  /// strays between partners. About `edges` in general position — the
  /// step is event-driven, not a walk over the AET.
  std::int64_t top_visits = 0;
  /// AET invariant violations seen by the validation hook (see
  /// VattiScratch::validate). Always 0 on a correct sweep; tests run the
  /// whole fuzz corpus with validation forced on and assert it stays 0.
  std::int64_t validate_failures = 0;
  /// Seed edges a windowed sweep started from: the bound edges crossing
  /// the window's bottom line (vatti_sweep_window). 0 for whole-input
  /// sweeps, which start from an empty AET.
  std::int64_t boundary_edges = 0;
};

/// Reusable scratch for the sweep: the bound table, the scanbeam schedule,
/// the prepared-contour buffer, the active edge table, the per-scanbeam
/// event buffers and the output pool's vertex arena all live here and are
/// cleared — capacity retained — instead of being reallocated on every
/// call (and, for the per-beam buffers, on every scanbeam). Each thread
/// has one (thread_scratch()): vatti_clip without a scratch argument and
/// the slab engine's healthy rung both sweep on it, so a warmed thread's
/// clip allocates only its result.
///
/// Owned by exactly one thread at a time; reuse never changes results
/// (cleared buffers are indistinguishable from fresh ones), also after a
/// sweep that unwound part way.
struct VattiScratch {
  VattiScratch();
  ~VattiScratch();
  VattiScratch(VattiScratch&&) noexcept;
  VattiScratch& operator=(VattiScratch&&) noexcept;

  std::uint64_t runs = 0;  ///< vatti_clip calls that reused this scratch

  /// AET invariant checker (parity flags must equal the accumulated flips
  /// to the left; the AET must be x-ordered at every scanline) and oracle
  /// of the order certificates: every beam it also evaluates every slot's
  /// x at the beam top, and checks that no certified pair is inverted
  /// there, that the sweep's swap list equals a full insertion sort's and
  /// that the popped ends are exactly the slots ending at the beam top.
  /// Violations print to stderr and count into
  /// VattiStats::validate_failures.
  ///   -1  inherit the PSCLIP_VALIDATE environment variable (read once per
  ///       process, not per sweep) — the default,
  ///    0  force off,  1  force on (deterministic hook for tests).
  int validate = -1;

  /// Approximate bytes resident in this scratch's buffers (capacities, not
  /// sizes — pooled buffers keep capacity across runs, and capacity is what
  /// the process actually holds). Powers SlabLoad::peak_arena_bytes. No
  /// memory-budget charge reads it (DESIGN.md §11): the sweep charges its
  /// run's output and a slab attempt its window's size (window_bytes), so a
  /// request's outcome does not depend on what its thread swept before.
  [[nodiscard]] std::size_t resident_bytes() const;

  struct Impl;  // buffer bundle, private to vatti.cpp
  std::unique_ptr<Impl> impl;
};

/// General polygon clipping with Vatti's scanline algorithm — the library's
/// sequential substrate, equivalent in role to the GPC library the paper
/// plugs into Algorithm 2 Step 6.
///
/// Handles arbitrary inputs: concave contours, multiple contours, holes
/// (even-odd), and self-intersecting contours. Horizontal edges are removed
/// internally by the paper's perturbation preprocessing (§III-C). Output
/// contours are oriented exterior-CCW / hole-CW and never self-intersect.
///
/// `scratch` supplies the sweep's working buffers and is reset internally;
/// without one the sweep runs on the calling thread's thread_scratch().
/// Results are identical either way, and so is the memory-budget charge
/// under a governed request.
geom::PolygonSet vatti_clip(const geom::PolygonSet& subject,
                            const geom::PolygonSet& clip, geom::BoolOp op,
                            VattiStats* stats = nullptr,
                            VattiScratch* scratch = nullptr);

/// The calling thread's sweep scratch, created on first use and freed
/// when the thread exits. The caller must not hold it across another
/// sweep on the same thread that uses it too (vatti_clip without a
/// scratch argument): sweeps do not nest, so borrowing it for one sweep
/// call at a time is enough.
VattiScratch& thread_scratch();

// Forward declaration (seq/bounds.hpp owns the definition).
struct BoundTable;

/// A horizontal strip [y_lo, y_hi] of a shared, read-only bound table —
/// one Algorithm 2 slab. Neither line may pass through a vertex of the
/// table (slab lines sit strictly between adjacent schedule values), so
/// every edge either crosses a line or lies on one side of it. The
/// default window is the whole plane: no seeds, every minimum.
struct SweepWindow {
  double y_lo = -std::numeric_limits<double>::infinity();
  double y_hi = std::numeric_limits<double>::infinity();
  /// Ids of the edges crossing y_lo (bot.y < y_lo < top.y), any order.
  std::span<const std::int32_t> seeds;
  /// The table's minima with y_lo < pt.y < y_hi: a sub-range of the
  /// (y, x)-sorted minima array.
  std::size_t min_begin = 0;
  std::size_t min_end = std::numeric_limits<std::size_t>::max();
  /// The table's sorted distinct scanbeam ys inside (y_lo, y_hi).
  std::span<const double> ys;
};

/// The bytes a sweep of window `w` over `bt` works in, by size: the
/// window's schedule, the edge-to-slot index over the table, and for every
/// edge that can be active at once (the seeds and both bounds of each of
/// the window's minima) an active-table slot with its certificate, extent,
/// sort slot and two queue entries. It counts no capacity, so it does not
/// depend on what a reused scratch swept before: the slab engine charges
/// it against the request's memory budget before a slab's sweep.
std::size_t window_bytes(const BoundTable& bt, const SweepWindow& w);

/// The sweep restricted to one window of a shared bound table (Algorithm
/// 2 Step 6 over a cut of the prepared bounds; nothing is copied or
/// re-prepared). At y_lo the seeds become the AET in (x, slope, edge id)
/// order, their parity flags come from the prefix count (Lemmas 2–3) and
/// every interior run between them opens a contour along the line; the
/// normal beam loop then runs over y_lo, w.ys, y_hi, inserting only the
/// window's minima, and at y_hi the runs still open close along the line.
/// Output contours are the result clipped to the strip, their seam
/// vertices the exact cut points x(y_lo) / x(y_hi) of the edges. `bt` is
/// only read, so any number of windows may sweep one table concurrently,
/// each on its own scratch. vatti_clip is this sweep with the default
/// window.
geom::PolygonSet vatti_sweep_window(const BoundTable& bt,
                                    const SweepWindow& w, geom::BoolOp op,
                                    VattiStats* stats, VattiScratch& scratch);

}  // namespace psclip::seq
