#pragma once

#include <cstdint>

#include "geom/polygon.hpp"

namespace psclip::geom {

/// Remove the horizontal edges of one contour by perturbing vertex
/// y-coordinates, implementing the preprocessing assumption of the paper
/// (§III-C): "if horizontal edges are present then ... the edges are
/// preprocessed by slightly perturbing the vertices to make them
/// non-horizontal." seq::prepare_contour_points is its one caller in the
/// sweep engines.
///
/// `magnitude` is the per-step nudge relative to the contour's height
/// (default a few ULP-scale fractions). The perturbation is deterministic,
/// and both the nudge quantum (contour bbox height) and the salt schedule
/// are per-contour quantities, so a contour perturbs the same alone or in
/// any set. Returns the number of vertices moved.
int remove_horizontals(Contour& c, double magnitude = 1e-9);

/// Deterministic pseudo-random jitter of all vertices by up to `magnitude`
/// (absolute units), used to put degenerate datasets into general position
/// before clipping. The same seed always produces the same jitter.
void jitter(PolygonSet& p, double magnitude, std::uint64_t seed);

/// True if any edge of `p` is exactly horizontal.
bool has_horizontal_edges(const PolygonSet& p);

}  // namespace psclip::geom
