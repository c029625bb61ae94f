#pragma once

// Shared deterministic fuzz-case generator. Every case builds a polygon
// pair from a fixed seed (smooth blobs, jagged stars, convex rings,
// self-intersecting rings, star polygrams, multi-contour fields — plus
// degenerate variants with collinear and duplicate vertices restored to
// general position via geom::jitter, the paper's §III-C preprocessing).
//
// Consumed by two harnesses: cross_engine_fuzz_test (engines must agree on
// every case) and fault_fuzz_test (every case must survive a seeded
// injected fault with byte-identical output). Keeping one generator means
// a corpus case that trips an engine bug automatically becomes a fault-
// recovery case too.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "data/synthetic.hpp"
#include "geom/bool_op.hpp"
#include "geom/perturb.hpp"
#include "geom/polygon.hpp"

namespace psclip::fuzz {

enum class Shape {
  kBlobPair,      // synthetic_pair: two large overlapping blobs
  kSimplePair,    // jagged concave stars
  kConvexVsBlob,  // convex ring against a blob
  kSelfIntersecting,  // self-intersecting subject
  kPolygram,      // star polygram subject
  kFieldVsBlob,   // multi-contour subject layer
};

enum class Degenerate {
  kNone,        // generator output as-is
  kSnapJitter,  // snap to a coarse grid (collinear runs, duplicate
                // vertices), clean, then jitter back to general position
  kJitterTiny,  // near-degenerate: vertices moved by ~1e-7
};

struct FuzzCase {
  std::uint64_t seed;
  Shape shape;
  Degenerate degen;
  geom::BoolOp op;

  [[nodiscard]] std::string repro() const {
    std::ostringstream os;
    os << "seed=" << seed << " shape=" << static_cast<int>(shape)
       << " degen=" << static_cast<int>(degen)
       << " op=" << geom::to_string(op);
    return os.str();
  }
};

/// Snap coordinates to a coarse grid. This manufactures exactly the inputs
/// sweep-line clippers dislike: collinear edge runs, duplicate vertices,
/// shared ordinates across both polygons.
inline void snap_to_grid(geom::PolygonSet& p, double cell) {
  for (auto& c : p.contours)
    for (auto& pt : c.pts) {
      pt.x = std::round(pt.x / cell) * cell;
      pt.y = std::round(pt.y / cell) * cell;
    }
}

struct Inputs {
  geom::PolygonSet a, b;
};

inline Inputs make_inputs(const FuzzCase& c) {
  Inputs in;
  const std::uint64_t s = c.seed;
  switch (c.shape) {
    case Shape::kBlobPair: {
      const auto pair =
          data::synthetic_pair(s, 24 + static_cast<int>(s % 5) * 12);
      in.a = pair.subject;
      in.b = pair.clip;
      break;
    }
    case Shape::kSimplePair:
      in.a = data::random_simple(s * 2 + 1, 10 + static_cast<int>(s % 7) * 5,
                                 0, 0, 10);
      in.b = data::random_simple(s * 2 + 2, 8 + static_cast<int>(s % 5) * 4,
                                 2, -1, 8);
      break;
    case Shape::kConvexVsBlob:
      in.a = data::random_convex(s * 2 + 1, 8 + static_cast<int>(s % 9) * 3,
                                 1, 1, 9);
      in.b = data::random_blob(s * 2 + 2, 24 + static_cast<int>(s % 4) * 10,
                               0, 0, 8);
      break;
    case Shape::kSelfIntersecting:
      in.a = data::random_self_intersecting(
          s * 2 + 1, 10 + static_cast<int>(s % 6) * 4, 0, 0, 10);
      in.b = data::random_simple(s * 2 + 2, 9 + static_cast<int>(s % 5) * 4,
                                 1, 1, 8);
      break;
    case Shape::kPolygram: {
      // Coprime (points, step) pairs only: a common factor would trace a
      // degenerate multi-cycle ring instead of one polygram.
      static constexpr int kPolygrams[][2] = {{5, 2},  {7, 2}, {7, 3},
                                              {9, 2},  {9, 4}, {11, 3},
                                              {11, 4}, {11, 5}};
      const auto& pg = kPolygrams[s % 8];
      in.a = data::star_polygram(pg[0], pg[1], 0, 0, 9);
      in.b = data::random_simple(s * 2 + 2, 12 + static_cast<int>(s % 5) * 3,
                                 1, -1, 8);
      break;
    }
    case Shape::kFieldVsBlob:
      in.a = data::polygon_field(s * 2 + 1, 6 + static_cast<int>(s % 4) * 2,
                                 20.0, 7);
      in.b = data::random_blob(s * 2 + 2, 20 + static_cast<int>(s % 4) * 8,
                               10, 10, 9);
      break;
  }
  switch (c.degen) {
    case Degenerate::kNone:
      break;
    case Degenerate::kSnapJitter:
      // Collinear/duplicate-vertex inputs restored to general position the
      // way the paper prescribes (§III-C): perturb, don't special-case.
      snap_to_grid(in.a, 0.5);
      snap_to_grid(in.b, 0.5);
      in.a = geom::cleaned(in.a);
      in.b = geom::cleaned(in.b);
      geom::jitter(in.a, 1e-6, s * 3 + 1);
      geom::jitter(in.b, 1e-6, s * 3 + 2);
      break;
    case Degenerate::kJitterTiny:
      geom::jitter(in.a, 1e-7, s * 3 + 1);
      geom::jitter(in.b, 1e-7, s * 3 + 2);
      break;
  }
  // Snapping can collapse a ring below 3 vertices; cleaned() above drops
  // those, and an input emptied entirely still goes through the engines
  // (they must agree on empty results too).
  return in;
}

/// Canonical vertex multiset of a polygon set: every coordinate pair,
/// sorted. Two runs of the same decomposition must produce the same
/// multiset bit for bit, regardless of scheduling.
inline std::vector<std::pair<double, double>> canonical_vertices(
    const geom::PolygonSet& p) {
  std::vector<std::pair<double, double>> v;
  for (const auto& c : p.contours)
    for (const auto& pt : c.pts) v.emplace_back(pt.x, pt.y);
  std::sort(v.begin(), v.end());
  return v;
}

inline std::vector<FuzzCase> make_cases() {
  // 6 shapes x 3 degeneracy modes x 4 operators x 3 seed lanes = 216
  // deterministic cases (>= the 200 the harness promises in ctest).
  std::vector<FuzzCase> cases;
  const Shape shapes[] = {Shape::kBlobPair,         Shape::kSimplePair,
                          Shape::kConvexVsBlob,     Shape::kSelfIntersecting,
                          Shape::kPolygram,         Shape::kFieldVsBlob};
  const Degenerate degens[] = {Degenerate::kNone, Degenerate::kSnapJitter,
                               Degenerate::kJitterTiny};
  std::uint64_t seed = 424200;
  for (int lane = 0; lane < 3; ++lane)
    for (const Shape sh : shapes)
      for (const Degenerate d : degens)
        for (const geom::BoolOp op : geom::kAllOps)
          cases.push_back({seed++, sh, d, op});
  return cases;
}

}  // namespace psclip::fuzz
