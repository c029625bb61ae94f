#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "geom/polygon.hpp"

namespace psclip::seq {

/// A polygon edge directed upward (bot.y < top.y). Vatti's algorithm views
/// every contour as a set of *bounds*: maximal ascending chains of edges
/// running from a local minimum to a local maximum (§III-A).
struct BoundEdge {
  geom::Point bot, top;
  double dxdy = 0.0;       ///< slope dx/dy (finite: no horizontal edges)
  bool is_clip = false;    ///< false = subject polygon, true = clip polygon
  std::int32_t next = -1;  ///< next edge up the same bound; -1 at a local max
};

/// A local minimum vertex with the first edges of its two ascending bounds.
/// `edge_left` has the smaller slope dx/dy, i.e. it runs to the left of
/// `edge_right` immediately above the minimum.
struct LocalMin {
  geom::Point pt;
  std::int32_t edge_left = -1;
  std::int32_t edge_right = -1;
};

/// Vatti's "minima table": all edges of both inputs decomposed into bounds,
/// plus the local minima sorted by (y, x) — the event schedule from which
/// the active edge table is fed.
struct BoundTable {
  std::vector<BoundEdge> edges;
  std::vector<LocalMin> minima;  ///< sorted by (pt.y, pt.x)

  [[nodiscard]] std::size_t num_edges() const { return edges.size(); }
};

/// Decompose one contour into bounds and append them to `bt`.
/// Precondition: no horizontal edges (prepare_contour_points removes them);
/// contours of fewer than 3 vertices are skipped. Emission order: minima in
/// vertex order, each minimum's forward chain, then its backward chain, so
/// the bound heads ascend.
void append_bounds(BoundTable& bt, const geom::Contour& c, bool is_clip);

/// Sort `bt.minima` by (y, x) — the final step of build_bounds_into,
/// exposed so callers that assemble tables from prepared fragments (the
/// slab engine) finish them identically.
void sort_minima(BoundTable& bt);

/// Drop interior vertices of exactly-horizontal collinear runs: vertex i
/// goes when prev.y == cur.y == next.y (exact compares) and cur.x lies
/// strictly between its neighbours' x. Rectangle-clipped or grid-snapped
/// inputs carry chains of such vertices along one line; left in place,
/// perturbation turns each into a separate
/// near-horizontal bound edge whose rounded x-order flips between beams and
/// breaks the tuned kernel's sorted-beam fast path. Dropping the interior
/// vertex of an exactly-collinear run never changes the even-odd region.
/// Runs before remove_horizontals in the shared per-contour prep
/// (prepare_contour_points). Returns the number of vertices removed.
int coalesce_horizontal_runs(geom::Contour& c);

/// Shared per-contour preparation: geom::cleaned_contour (exact duplicate
/// removal) -> coalesce_horizontal_runs -> per-contour
/// geom::remove_horizontals, into `out` (storage reused). Returns false
/// when fewer than 3 vertices survive — such contours contribute no bounds
/// anywhere. vatti_clip and the slab engine prepare every contour
/// through this one function; slab_clip's byte-identity with vatti_clip at
/// one slab rests on the prep being per-contour deterministic.
bool prepare_contour_points(const geom::Contour& in, geom::Contour& out);

/// One globally prepared contour, ready to drop into any slab's BoundTable
/// without re-running clean/coalesce/perturb/bound-build: the prepared
/// vertices, the contour's own bound fragment (edge ids local to `bt`,
/// minima in emission order, unsorted), its sorted distinct endpoint ys
/// (a ready-made scanbeam-schedule run) and finiteness.
struct PreparedContour {
  geom::Contour pts;
  BoundTable bt;
  std::vector<double> ys;
  bool finite = true;
};

/// Fill `out` from `in` (storage reused). Returns false when the contour
/// degenerates (< 3 vertices after cleaning); `out`'s table and schedule
/// run are left empty in that case.
bool prepare_contour(const geom::Contour& in, bool is_clip,
                     PreparedContour& out);

/// Version salt folded into contour_digest. Bump whenever prepare_contour's
/// output changes for the same input bytes (a perturbation-policy change, a
/// new cleaning rule, ...), so persisted or long-lived caches keyed on the
/// digest can never serve a stale prepared fragment across versions.
inline constexpr std::uint64_t kPrepareDigestVersion = 1;

/// Content address of (contour bytes, prepare options): FNV-1a 64 over the
/// vertex coordinate bit patterns in order, the vertex count, `is_clip`, and
/// kPrepareDigestVersion. Two contours digest equal iff their vertex
/// sequences are bit-identical under the same options — exactly the
/// condition for prepare_contour to produce bit-identical output (the prep
/// pipeline is a pure function of those bytes). The `hole` flag is ignored,
/// as prepare_contour ignores it (even-odd fill).
std::uint64_t contour_digest(const geom::Contour& c, bool is_clip);

/// Raw FNV-1a 64 over `n` bytes, seeded with `basis` (pass kFnvBasis to
/// start a fresh digest). Exposed so caches can verify keys and tests can
/// manufacture collisions.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t basis);

/// Source of shared immutable prepared fragments — the seam between the
/// slab engine (mt::slab_clip, which only consumes prepared contours) and
/// a cross-request cache (svc::PreparedCache, which owns lifetime and
/// eviction). Returns a fragment equal to what
/// prepare_contour(c, is_clip, out) would produce, or null when the contour
/// degenerates (prepare_contour returns false). Implementations must be
/// thread-safe: the engines call prepared() from every pool worker, and a
/// service calls into one source from many concurrent requests. Returned
/// fragments are immutable and may outlive the source's entry (shared_ptr
/// keeps an evicted fragment alive until its last reader drops it).
class PreparedSource {
 public:
  virtual ~PreparedSource() = default;
  virtual std::shared_ptr<const PreparedContour> prepared(
      const geom::Contour& c, bool is_clip) = 0;
};

/// Merge sorted runs held back-to-back in `ys` (run r occupies
/// ys[run_end[r], run_end[r+1]); run_end.front() must be 0 and
/// run_end.back() == ys.size()) into one sorted distinct-value vector with
/// bottom-up pairwise stable merges (of equal values the earlier run's
/// first, as std::inplace_merge keeps them). Each level merges between `ys`
/// and `buf` (resized to ys.size(), contents discarded; the two may
/// exchange storage), so a retained `buf` merges without allocating.
/// `run_end` is consumed as scratch. The slab engine uses it to merge the
/// prepared fragments' schedule runs into one table's schedule.
void merge_sorted_runs_unique(std::vector<double>& ys,
                              std::vector<std::size_t>& run_end,
                              std::vector<double>& buf);

/// The sweep prologue for a subject/clip pair, shared by vatti_clip and
/// Algorithm 1 (core::scanbeam_clip): every contour through
/// prepare_contour_points, its bounds appended (subject contours first),
/// the minima sorted, and the scanbeam schedule built into `ys` by
/// scanbeam_ys_merged_into. Both outputs are cleared with capacity
/// retained, so repeated clips reuse their storage. Each contour is
/// prepared in `prep` (overwritten, capacity retained; vatti_clip passes
/// its scratch's, so a warmed scratch builds its bounds without
/// allocating). Preparing contour by contour is bit-identical to the slab
/// engine's prepared fragments.
void build_bounds_into(BoundTable& bt, std::vector<double>& ys,
                       const geom::PolygonSet& subject,
                       const geom::PolygonSet& clip, geom::Contour& prep);

/// As build_bounds_into, returning the table and dropping the schedule.
BoundTable build_bounds(const geom::PolygonSet& subject,
                        const geom::PolygonSet& clip);

/// Collect the sorted distinct y-coordinates of all edge endpoints into
/// `ys` (cleared, capacity retained) — the scanbeam schedule (paper
/// §III-B: "scanbeam table"). Only the minima ys and the edge tops are
/// sorted, |minima| + |edges| values instead of all 2·|edges| endpoints
/// (every edge's bot is a minimum or the top of the edge below it). Long
/// schedules sort by an O(n) radix sort over the doubles' bit patterns,
/// short ones by std::sort. Of equal-comparing -0.0 and +0.0 the schedule
/// keeps the zero met first walking the bounds (minima order, left head
/// first, each from its minimum up), whatever the sort, so the schedule's
/// bits — and the output and cached-fragment bytes that golden digests
/// pin — do not depend on the sort algorithm.
void scanbeam_ys_merged_into(const BoundTable& bt, std::vector<double>& ys);

}  // namespace psclip::seq
