#pragma once

#include <cstdint>
#include <span>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "geom/polygon.hpp"
#include "parallel/thread_pool.hpp"
#include "seq/bounds.hpp"

namespace psclip::core {

/// Merges per-beam partial polygons into the final result by *welding*
/// away the shared horizontal boundaries.
///
/// Every partial ring is counter-clockwise, so the top side of a beam
/// piece runs right-to-left and the bottom side of the piece above it runs
/// left-to-right over the same interval: after subdividing the horizontal
/// edges on a scanline at all endpoints present there, every sub-edge
/// appears exactly twice in opposite directions. Cancelling such a pair
/// and re-linking the rings implements the paper's partial-polygon union;
/// the virtual vertices left behind on the welded lines are removed by
/// drop_cut_vertices. Welds of distinct scanlines touch disjoint slots, so
/// the tree reduction runs its per-phase welds in parallel.
class WeldArena {
 public:
  /// Add one counter-clockwise partial ring (first vertex not repeated).
  void add_ring(const geom::Contour& ring);

  /// Weld several scanlines in parallel using the PRAM count/allocate/
  /// report pattern: read-only planning per scanline, one prefix-sum slot
  /// allocation, then parallel application (welds of distinct scanlines
  /// touch disjoint slots). `boundary_idx` indexes into `ys`.
  void weld_parallel(par::ThreadPool& pool,
                     std::span<const std::size_t> boundary_idx,
                     std::span<const double> ys);

  /// The paper's reduction tree (Fig. 6) over the interior scanlines
  /// ys[1..m-1]: phase h welds the boundaries that are odd multiples of
  /// 2^h, in parallel within the phase. Returns the number of phases
  /// executed.
  int weld_tree(par::ThreadPool& pool, std::span<const double> ys);

  /// Trace the remaining rings (exact consecutive duplicates collapsed)
  /// and set hole flags from orientation (welded exteriors stay
  /// counter-clockwise, holes come out clockwise). The cut vertices on the
  /// welded lines are still there: drop_cut_vertices removes them.
  [[nodiscard]] geom::PolygonSet extract() const;

  [[nodiscard]] std::size_t num_slots() const { return pt_.size(); }

  /// Diagnostics: horizontal edges on registered scanlines that remain
  /// uncancelled after welding (tuples of y, x_from, x_to). A correct
  /// weld of a beam tiling leaves none.
  [[nodiscard]] std::vector<std::tuple<double, double, double>>
  debug_unwelded() const;

 private:
  struct ScanPlan {
    double y = 0.0;
    std::vector<std::int32_t> slots;  // live horizontal edges on the line
    std::vector<double> xs;           // subdivision ordinates
    std::size_t new_slots = 0;        // chain slots the apply phase creates
    std::size_t base = 0;             // preallocated slot range start
  };
  [[nodiscard]] ScanPlan plan_scanline(double y) const;
  void apply_scanline(const ScanPlan& plan);

  std::vector<geom::Point> pt_;
  std::vector<std::int32_t> next_;
  std::vector<std::uint8_t> cancelled_;  ///< slot's outgoing edge welded away
  std::vector<std::int32_t> twin_;       ///< continuation vertex if cancelled
  /// scanline y -> slots whose outgoing edge is horizontal on that line
  std::unordered_map<double, std::vector<std::int32_t>> horiz_;
};

/// Input vertices lying on a sorted set of lines, by line: the xs of the
/// vertices on line j are xs[first[j], first[j + 1]), sorted.
struct LineVertices {
  std::vector<std::size_t> first;
  std::vector<double> xs;
};

/// The input vertices of `bt` on the lines `ys` (the table's schedule, so
/// every vertex is on one).
LineVertices vertices_on_lines(const seq::BoundTable& bt,
                               std::span<const double> ys);

/// The merge's one vertex rule (both engines): drop the cut vertices of
/// `ring`, the vertices on a line of `lines` (sorted) whose two neighbours
/// lie strictly on opposite sides of it, on the chord between them up to
/// the rounding of the cut point. Each is the cut point of one input edge,
/// so dropping it restores that edge; two edges that cross exactly on a
/// line make a real corner there, which the chord test keeps. A vertex of
/// the input is never a cut vertex: when `on_lines` is given, a candidate
/// whose x is among its line's input vertices stays. (Perturbation can put
/// an input vertex within ~1e-14 of the chord through its neighbours,
/// which the chord test cannot tell from a cut point.) The decision reads
/// the original neighbours, so an edge cut by several lines loses all its
/// cut points at once.
void drop_cut_vertices(geom::Contour& ring, std::span<const double> lines,
                       const LineVertices* on_lines = nullptr);

}  // namespace psclip::core
