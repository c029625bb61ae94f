#pragma once

#include <cstdint>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "segtree/segment_tree.hpp"
#include "seq/bounds.hpp"

namespace psclip::core {

/// Result of Algorithm 1 Steps 1–2: the scanbeam schedule and, for every
/// scanbeam, the edges passing through it (CSR layout). The total number
/// of edge-in-beam incidences is the paper's k' (each incidence beyond an
/// edge's first beam corresponds to one virtual vertex pair introduced by
/// partitioning).
struct ScanbeamPartition {
  std::vector<double> ys;  ///< m+1 scanline ordinates; beam i = [ys[i], ys[i+1])
  std::vector<std::int64_t> offsets;  ///< size m+1, CSR offsets into edge_ids
  std::vector<std::int32_t> edge_ids; ///< bound-edge ids per beam

  [[nodiscard]] std::size_t num_beams() const {
    return ys.size() >= 2 ? ys.size() - 1 : 0;
  }
  /// Total edge-in-beam incidences (k' + n in the paper's terms).
  [[nodiscard]] std::int64_t total_incidences() const {
    return offsets.empty() ? 0 : offsets.back();
  }
  /// The paper's k': extra (virtual) edge pieces created by partitioning.
  [[nodiscard]] std::int64_t k_prime(std::size_t num_edges) const {
    return total_incidences() - static_cast<std::int64_t>(num_edges);
  }
};

/// Step 2: partition the edges of `bt` into the scanbeams of its schedule
/// `ys` (Step 1's event sort, seq::build_bounds_into) with a cover-list
/// segment tree, two-phase count/report.
ScanbeamPartition partition_scanbeams(par::ThreadPool& pool,
                                      const seq::BoundTable& bt,
                                      std::vector<double> ys);

}  // namespace psclip::core
