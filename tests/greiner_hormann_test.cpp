// Greiner–Hormann, the bench-local clipper behind bench_ablation_clippers'
// §IV comparison (bench/greiner_hormann.hpp), against the area oracle, and
// its rings against geom::validate: no ring may cross itself or another
// (ring_crossings), which the area alone cannot see.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "geom/area_oracle.hpp"
#include "geom/validate.hpp"
#include "greiner_hormann.hpp"
#include "test_support.hpp"

namespace psclip::bench {
namespace {

using geom::BoolOp;
using geom::Contour;
using geom::PolygonSet;

class GhOps : public ::testing::TestWithParam<int> {};

TEST_P(GhOps, MatchesOracleOnRandomSimplePolygons) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const PolygonSet a = test::random_polygon(seed * 2 + 1, 12, 0, 0, 10);
  const PolygonSet b = test::random_polygon(seed * 2 + 2, 9, 2, 1, 8);
  for (const BoolOp op : geom::kAllOps) {
    const PolygonSet g =
        greiner_hormann(a.contours[0], b.contours[0], op);
    const double got = geom::even_odd_area(g);
    const double want = geom::boolean_area_oracle(a, b, op);
    EXPECT_TRUE(test::areas_match(got, want))
        << geom::to_string(op) << " got=" << got << " want=" << want;
    EXPECT_EQ(ring_crossings(g), 0u)
        << geom::to_string(op) << "\n" << geom::validation_report(g);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GhOps, ::testing::Range(1, 31));

TEST(GreinerHormann, NoIntersectionCases) {
  const Contour outer = geom::make_rect(0, 0, 10, 10);
  const Contour inner = geom::make_rect(3, 3, 5, 5);
  const Contour far = geom::make_rect(20, 20, 22, 22);
  // Contained.
  EXPECT_NEAR(geom::even_odd_area(
                  greiner_hormann(inner, outer, BoolOp::kIntersection)),
              4.0, 1e-9);
  EXPECT_NEAR(
      geom::even_odd_area(greiner_hormann(outer, inner, BoolOp::kDifference)),
      96.0, 1e-9);
  EXPECT_NEAR(
      geom::even_odd_area(greiner_hormann(inner, outer, BoolOp::kDifference)),
      0.0, 1e-9);
  // Disjoint.
  EXPECT_NEAR(geom::even_odd_area(
                  greiner_hormann(outer, far, BoolOp::kIntersection)),
              0.0, 1e-9);
  EXPECT_NEAR(
      geom::even_odd_area(greiner_hormann(outer, far, BoolOp::kUnion)),
      104.0, 1e-9);
  for (const BoolOp op : geom::kAllOps)
    for (const auto& [s, c] : {std::pair{inner, outer}, std::pair{outer, inner},
                               std::pair{outer, far}})
      EXPECT_EQ(ring_crossings(greiner_hormann(s, c, op)), 0u)
          << geom::to_string(op);
}

TEST(GreinerHormann, MultipleResultRings) {
  // A tall subject crossing a wide clip: intersection is one ring, XOR
  // is four.
  const Contour tall = geom::make_rect(4, 0, 6, 10);
  const Contour wide = geom::make_rect(0, 4, 10, 6);
  EXPECT_EQ(greiner_hormann(tall, wide, BoolOp::kIntersection).num_contours(),
            1u);
  EXPECT_NEAR(geom::even_odd_area(
                  greiner_hormann(tall, wide, BoolOp::kXor)),
              32.0, 1e-9);
  for (const BoolOp op : geom::kAllOps)
    EXPECT_EQ(ring_crossings(greiner_hormann(tall, wide, op)), 0u)
        << geom::to_string(op);
}

}  // namespace
}  // namespace psclip::bench
