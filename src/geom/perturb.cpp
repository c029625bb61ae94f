#include "geom/perturb.hpp"

#include <cmath>

namespace psclip::geom {
namespace {

/// SplitMix64: small, seedable, high-quality 64-bit mixer.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double unit_double(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

}  // namespace

bool has_horizontal_edges(const PolygonSet& p) {
  for (const auto& c : p.contours) {
    const std::size_t n = c.size();
    for (std::size_t i = 0, j = n - 1; i < n; j = i++)
      if (c[j].y == c[i].y) return true;
  }
  return false;
}

int remove_horizontals(Contour& c, double magnitude) {
  int moved = 0;
  const std::size_t n = c.size();
  // Repeated passes: a nudge can in principle create a new horizontal edge
  // with the *next* neighbour, so iterate to a fixpoint (bounded). The
  // perturbation is entirely per-contour — the nudge quantum comes from the
  // contour's own bbox and the salt from (pass, vertex index) — so a
  // contour perturbs identically whether it travels alone (the slab
  // engine prepares contours one by one, a prepared cache shares them
  // across requests) or in a whole input set. slab_clip's byte-identity
  // with vatti_clip rests on exactly this independence.
  for (int pass = 0; pass < 64; ++pass) {
    bool changed = false;
    const BBox cb = bounds(c);
    const double step =
        std::fmax(cb.height(), 1.0) * std::fmax(magnitude, 1e-15);
    for (std::size_t i = 1; i <= n; ++i) {
      Point& prev = c[i - 1];
      Point& cur = c[i % n];
      // Near-horizontal edges (|dy| below the nudge quantum, typically
      // floating-point noise in upstream intersection points) are as
      // degenerate for the sweep as exactly horizontal ones: their
      // slope explodes and the scanbeam between their endpoints is
      // thinner than the arithmetic can resolve. Perturb both kinds.
      if (std::fabs(prev.y - cur.y) < step) {
        cur.y = prev.y;
        // Deterministic per (pass, vertex-in-contour) so that the same
        // contour perturbs identically regardless of which polygon set
        // it travels in.
        const int salt =
            1 + static_cast<int>((static_cast<std::size_t>(pass) * 7 +
                                  i * 13) %
                                 17);
        cur.y += step * static_cast<double>(salt);
        ++moved;
        changed = true;
      }
    }
    if (!changed) return moved;
  }
  return moved;
}

void jitter(PolygonSet& p, double magnitude, std::uint64_t seed) {
  std::uint64_t state = seed * 0x2545f4914f6cdd1dULL + 1;
  for (auto& c : p.contours) {
    for (auto& pt : c.pts) {
      pt.x += (unit_double(state) - 0.5) * 2.0 * magnitude;
      pt.y += (unit_double(state) - 0.5) * 2.0 * magnitude;
    }
  }
}

}  // namespace psclip::geom
