#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "seq/bounds.hpp"

namespace psclip::mt {

/// Slab lines for (at most) `slabs` horizontal slabs over a sorted
/// distinct scanbeam schedule `ys`: line t sits midway between the two
/// schedule values around the cut t·|ys|/slabs, so the slabs hold (nearly)
/// equal numbers of event ordinates. A line is only kept when it lies
/// strictly between its two neighbours and above the previous line, so no
/// vertex of the schedule's table can ever lie on a line; duplicate cuts
/// (more slabs than ordinates) collapse. Returns the interior lines,
/// strictly increasing; slab t is the strip between line t−1 and line t
/// (unbounded below for t = 0 and above for the last slab).
std::vector<double> slab_lines(std::span<const double> ys, unsigned slabs);

/// The slab index of a prepared bound table (Algorithm 2 Steps 4–5 as an
/// output-sensitive cut): the slab lines and, for every line, the bound
/// edges crossing it — the seeds a slab's windowed sweep starts from
/// (seq::vatti_sweep_window). Everything else a slab needs is a
/// contiguous range of the shared table: its minima and its schedule
/// slice, found by binary search on y. Nothing is copied, rect-clipped or
/// re-prepared per slab.
struct SlabIndex {
  std::vector<double> lines;          ///< interior slab lines, ascending
  std::vector<std::int64_t> offsets;  ///< per-line seed start, lines + 1
  /// Ids of the edges crossing each line (bot.y < line < top.y), grouped
  /// by line; within a line in bound order (the windowed sweep sorts them
  /// by x itself).
  std::vector<std::int32_t> seeds;
  /// Per line: bound edges the binary searches along the chains read to
  /// find that line's seeds — the partition's work beyond the seeds.
  std::vector<std::int64_t> probes;

  [[nodiscard]] std::size_t num_slabs() const { return lines.size() + 1; }

  /// Seeds of line j (the bottom line of slab j + 1).
  [[nodiscard]] std::span<const std::int32_t> line_seeds(std::size_t j) const {
    return {seeds.data() + offsets[j],
            static_cast<std::size_t>(offsets[j + 1] - offsets[j])};
  }
};

/// The bound heads of a table whose minima are still in emission order
/// (append_bounds over the contours in order, before seq::sort_minima):
/// each minimum's two head edge ids, smaller first. Every minimum emits its
/// forward chain, then its backward chain, as contiguous edge-id runs, so
/// the heads ascend and split the edge array into its bounds. slab_clip
/// writes the same heads while it assembles its table from the prepared
/// fragments.
std::vector<std::int32_t> bound_heads(const seq::BoundTable& bt);

/// Cut `bt` (every bound a contiguous run of edge ids — the layout
/// append_bounds emits and slab_clip's fragment copy keeps; minima in any
/// order) at the slab_lines of its schedule `ys`. `heads` are the bound
/// heads in ascending order (bound_heads, taken before sort_minima), so
/// the index needs no sort and can be built while the minima sort.
///
/// Parallel over the bounds: each bound finds the lines it crosses by two
/// binary searches over the lines and its edge at each of them by binary
/// search along its chain; the blocked prefix sum (parallel/scan) turns
/// per-bound crossing counts into write slots, and one counting pass
/// groups the (line, edge) records by line. O(B log p + Σ seeds · log n)
/// for B bounds — independent of how many edges lie between the lines.
SlabIndex build_slab_index(par::ThreadPool& pool, const seq::BoundTable& bt,
                           std::span<const std::int32_t> heads,
                           std::span<const double> ys, unsigned slabs);

}  // namespace psclip::mt
