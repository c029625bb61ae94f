#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/bool_op.hpp"
#include "geom/polygon.hpp"
#include "seq/bounds.hpp"

namespace psclip::core {

/// Partial output polygons of one scanbeam (Algorithm 1 Step 3).
struct BeamResult {
  /// Closed partial rings: material pieces counter-clockwise, hole pockets
  /// (exterior wedges opened and closed by crossings strictly inside the
  /// beam) clockwise with `hole` set. Horizontal sides of material rings
  /// lie exactly on the beam's two scanlines and carry the virtual
  /// vertices the merge phase welds away.
  std::vector<geom::Contour> rings;
  std::int64_t intersections = 0;  ///< crossings handled in this beam
};

/// Process one scanbeam independently of all others — the heart of the
/// paper's Algorithm 1. `edge_ids` are the bound edges spanning the beam
/// [yb, yt] (from the Step 2 partition); no other sweep state is consulted.
///
/// Internally this performs, exactly as Lemmas 1–4 prescribe:
///  1. sort edges by x on the lower scanline (local left/right labeling —
///     Lemma 1: labels alternate, derived from the sorted position),
///  2. a parity prefix pass that classifies every edge's neighbourhood as
///     contributing or not (Lemma 2/3's prefix-sum test),
///  3. crossing discovery as the inversions between the lower- and
///     upper-scanline x orders via the extended-mergesort reporter
///     (Lemma 4), processed in ascending y by the crossing step the
///     Vatti sweep uses (seq::process_crossings),
///  4. partial-polygon assembly with virtual vertices on both scanlines
///     (Step 3.4's bound concatenation, realized by the out-poly pool).
BeamResult process_beam(const seq::BoundTable& bt,
                        std::span<const std::int32_t> edge_ids, double yb,
                        double yt, geom::BoolOp op);

}  // namespace psclip::core
