#include "core/beam_sweep.hpp"

#include <gtest/gtest.h>

#include "core/scanbeam.hpp"
#include "geom/area_oracle.hpp"
#include "seq/vatti.hpp"
#include "test_support.hpp"

namespace psclip::core {
namespace {

using geom::BoolOp;
using geom::PolygonSet;

/// Sum of partial-polygon areas over all beams: must equal the result
/// area, because beam pieces tile the result region disjointly.
double tiled_area(const PolygonSet& a, const PolygonSet& b, BoolOp op,
                  std::int64_t* crossings = nullptr) {
  par::ThreadPool pool(2);
  const auto [bt, part] = test::partition(pool, a, b);
  double area = 0.0;
  std::int64_t k = 0;
  for (std::size_t beam = 0; beam < part.num_beams(); ++beam) {
    const auto lo = static_cast<std::size_t>(part.offsets[beam]);
    const auto hi = static_cast<std::size_t>(part.offsets[beam + 1]);
    const BeamResult br = process_beam(
        bt, std::span<const std::int32_t>(part.edge_ids).subspan(lo, hi - lo),
        part.ys[beam], part.ys[beam + 1], op);
    k += br.intersections;
    for (const auto& ring : br.rings) {
      // Material partials CCW, in-beam hole pockets CW.
      if (ring.hole)
        EXPECT_LT(geom::signed_area(ring), 0.0);
      else
        EXPECT_GE(geom::signed_area(ring), 0.0);
      area += geom::signed_area(ring);
    }
  }
  if (crossings) *crossings = k;
  return area;
}

TEST(BeamSweep, SquaresIntersectionTilesExactly) {
  const PolygonSet a = geom::make_polygon({{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  const PolygonSet b = geom::make_polygon({{5, 5}, {15, 5}, {15, 15}, {5, 15}});
  std::int64_t k = 0;
  const double area = tiled_area(a, b, BoolOp::kIntersection, &k);
  EXPECT_NEAR(area, 25.0, 1e-5);
  EXPECT_EQ(k, 2);
}

TEST(BeamSweep, AllOpsTileToOracleArea) {
  const PolygonSet a = test::random_polygon(11, 14, 0, 0, 10);
  const PolygonSet b = test::random_polygon(12, 10, 2, -1, 8, true);
  for (const BoolOp op : geom::kAllOps) {
    EXPECT_TRUE(test::areas_match(tiled_area(a, b, op),
                                  geom::boolean_area_oracle(a, b, op), 1e-5))
        << geom::to_string(op);
  }
}

TEST(BeamSweep, BeamWithFewerThanTwoEdgesIsEmpty) {
  const seq::BoundTable bt;
  const BeamResult r =
      process_beam(bt, std::span<const std::int32_t>{}, 0.0, 1.0,
                   BoolOp::kIntersection);
  EXPECT_TRUE(r.rings.empty());
  EXPECT_EQ(r.intersections, 0);
}

TEST(BeamSweep, PartialRingsLieInsideTheirBeam) {
  const PolygonSet a = test::random_polygon(21, 16, 0, 0, 10);
  const PolygonSet b = test::random_polygon(22, 12, 1, 1, 8);
  par::ThreadPool pool(2);
  const auto [bt, part] = test::partition(pool, a, b);
  for (std::size_t beam = 0; beam < part.num_beams(); ++beam) {
    const auto lo = static_cast<std::size_t>(part.offsets[beam]);
    const auto hi = static_cast<std::size_t>(part.offsets[beam + 1]);
    const BeamResult br = process_beam(
        bt, std::span<const std::int32_t>(part.edge_ids).subspan(lo, hi - lo),
        part.ys[beam], part.ys[beam + 1], BoolOp::kUnion);
    for (const auto& ring : br.rings) {
      const geom::BBox bb = geom::bounds(ring);
      EXPECT_GE(bb.ymin, part.ys[beam] - 1e-9);
      EXPECT_LE(bb.ymax, part.ys[beam + 1] + 1e-9);
    }
  }
}

TEST(BeamSweep, CrossingCountMatchesSequentialSweep) {
  const PolygonSet a = test::random_polygon(31, 20, 0, 0, 10, true);
  const PolygonSet b = test::random_polygon(32, 15, 1, -2, 9);
  std::int64_t beams_k = 0;
  tiled_area(a, b, BoolOp::kIntersection, &beams_k);
  seq::VattiStats st;
  seq::vatti_clip(a, b, BoolOp::kIntersection, &st);
  EXPECT_EQ(beams_k, st.intersections);
}

TEST(BeamSweep, IndependenceFromOtherBeams) {
  // Processing a beam must not depend on global state: the same beam
  // processed twice yields identical rings.
  const PolygonSet a = test::random_polygon(41, 12, 0, 0, 10);
  par::ThreadPool pool(2);
  const auto [bt, part] = test::partition(pool, a);
  ASSERT_GT(part.num_beams(), 2u);
  const std::size_t beam = part.num_beams() / 2;
  const auto lo = static_cast<std::size_t>(part.offsets[beam]);
  const auto hi = static_cast<std::size_t>(part.offsets[beam + 1]);
  const auto span =
      std::span<const std::int32_t>(part.edge_ids).subspan(lo, hi - lo);
  const BeamResult r1 =
      process_beam(bt, span, part.ys[beam], part.ys[beam + 1], BoolOp::kUnion);
  const BeamResult r2 =
      process_beam(bt, span, part.ys[beam], part.ys[beam + 1], BoolOp::kUnion);
  ASSERT_EQ(r1.rings.size(), r2.rings.size());
  for (std::size_t i = 0; i < r1.rings.size(); ++i) {
    ASSERT_EQ(r1.rings[i].size(), r2.rings[i].size());
    for (std::size_t j = 0; j < r1.rings[i].size(); ++j)
      EXPECT_EQ(r1.rings[i][j], r2.rings[i][j]);
  }
}

}  // namespace
}  // namespace psclip::core
