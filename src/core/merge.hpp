#pragma once

#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "geom/polygon.hpp"
#include "parallel/thread_pool.hpp"
#include "seq/bounds.hpp"

namespace psclip::core {

/// Merges partial polygons into the final result by *welding* away the
/// shared horizontal boundaries on a sorted set of lines (Algorithm 1's
/// scanlines, Algorithm 2's slab lines).
///
/// Every partial ring is counter-clockwise, so the top side of a piece
/// runs right-to-left and the bottom side of the piece above it runs
/// left-to-right over the same interval: after subdividing the horizontal
/// edges on a line at all endpoints present there, every sub-edge appears
/// exactly twice in opposite directions. Cancelling such a pair and
/// re-linking the rings implements the paper's partial-polygon union
/// (Fig. 6); the virtual vertices left behind on the welded lines are
/// removed by drop_cut_vertices. Welds of distinct lines touch disjoint
/// slots, so every line welds in one parallel phase.
class WeldArena {
 public:
  /// An arena that welds along `lines` (sorted ascending; copied).
  explicit WeldArena(std::span<const double> lines);

  /// Add one counter-clockwise partial ring (first vertex not repeated).
  void add_ring(const geom::Contour& ring);

  /// Weld every line in one phase using the PRAM count/allocate/report
  /// pattern: read-only planning per line, one prefix-sum slot
  /// allocation, then parallel application.
  void weld_parallel(par::ThreadPool& pool);

  /// Trace the remaining rings (exact consecutive duplicates collapsed)
  /// and set hole flags from orientation (welded exteriors stay
  /// counter-clockwise, holes come out clockwise). The cut vertices on the
  /// welded lines are still there: drop_cut_vertices removes them.
  [[nodiscard]] geom::PolygonSet extract() const;

  [[nodiscard]] std::size_t num_slots() const { return pt_.size(); }

  /// Diagnostics: horizontal edges on the lines that remain uncancelled
  /// after welding (tuples of y, x_from, x_to). A correct weld of a beam
  /// tiling leaves none.
  [[nodiscard]] std::vector<std::tuple<double, double, double>>
  debug_unwelded() const;

 private:
  struct LinePlan {
    double y = 0.0;
    std::vector<std::int32_t> slots;  // live horizontal edges on the line
    std::vector<double> xs;           // subdivision ordinates
    std::size_t new_slots = 0;        // chain slots the apply phase creates
    std::size_t base = 0;             // preallocated slot range start
  };
  [[nodiscard]] LinePlan plan_line(std::size_t j) const;
  void apply_line(const LinePlan& plan);

  std::vector<double> lines_;
  std::vector<geom::Point> pt_;
  std::vector<std::int32_t> next_;
  std::vector<std::uint8_t> cancelled_;  ///< slot's outgoing edge welded away
  std::vector<std::int32_t> twin_;       ///< continuation vertex if cancelled
  /// by line index: slots whose outgoing edge is horizontal on that line
  std::vector<std::vector<std::int32_t>> horiz_;
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

/// The merge of both engines (Algorithm 1 Step 4, Algorithm 2 Step 8):
/// weld `rings` along every line of `lines` (sorted) in one parallel phase,
/// trace the welded rings and drop their cut vertices on `lines`
/// (drop_cut_vertices with `on_lines`), one ring per pool task.
geom::PolygonSet weld_seams(par::ThreadPool& pool,
                            std::span<const geom::Contour> rings,
                            std::span<const double> lines,
                            const LineVertices* on_lines = nullptr);

}  // namespace psclip::core
