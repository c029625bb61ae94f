#include "core/merge.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "geom/point_in_polygon.hpp"
#include "test_support.hpp"

namespace psclip::core {
namespace {

using geom::Contour;
using geom::Point;

Contour ccw_rect(double x0, double y0, double x1, double y1) {
  return geom::make_rect(x0, y0, x1, y1);
}

/// Weld `arena` along `lines`, extract, and drop the cut vertices on the
/// lines.
geom::PolygonSet welded(WeldArena& arena, std::vector<double> lines) {
  par::ThreadPool pool(2);
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < lines.size(); ++i) idx.push_back(i);
  arena.weld_parallel(pool, idx, lines);
  geom::PolygonSet out = arena.extract();
  for (Contour& ring : out.contours) drop_cut_vertices(ring, lines);
  return out;
}

TEST(WeldArena, TwoStackedRectsBecomeOne) {
  WeldArena arena;
  arena.add_ring(ccw_rect(0, 0, 4, 2));
  arena.add_ring(ccw_rect(0, 2, 4, 5));
  const auto out = welded(arena, {2.0});
  ASSERT_EQ(out.num_contours(), 1u);
  EXPECT_NEAR(geom::signed_area(out), 20.0, 1e-12);
  EXPECT_FALSE(out.contours[0].hole);
  // The cut vertices on the weld line are dropped: 4 corners remain.
  EXPECT_EQ(out.contours[0].size(), 4u);
}

TEST(WeldArena, PartialOverlapSubdivides) {
  // Top side [0,4] welds against two bottoms [0,2] and [2,4].
  WeldArena arena;
  arena.add_ring(ccw_rect(0, 0, 4, 2));
  arena.add_ring(ccw_rect(0, 2, 2, 4));
  arena.add_ring(ccw_rect(2, 2, 4, 4));
  const auto out = welded(arena, {2.0});
  ASSERT_EQ(out.num_contours(), 1u);
  EXPECT_NEAR(geom::signed_area(out), 16.0, 1e-12);
}

TEST(WeldArena, MismatchedSpansLeaveBoundary) {
  // Bottom rect is wider: only the shared [1,3] stretch welds; the rest
  // of the top side remains result boundary (an L-profile).
  WeldArena arena;
  arena.add_ring(ccw_rect(0, 0, 4, 2));
  arena.add_ring(ccw_rect(1, 2, 3, 4));
  const auto out = welded(arena, {2.0});
  ASSERT_EQ(out.num_contours(), 1u);
  EXPECT_NEAR(geom::signed_area(out), 12.0, 1e-12);
  EXPECT_TRUE(geom::point_in_polygon({2, 3}, out));
  EXPECT_FALSE(geom::point_in_polygon({0.5, 3}, out));
}

TEST(WeldArena, HoleEmergesClockwise) {
  // A ring of four trapezoid-ish pieces around a central void, stacked as
  // two beams: welding must produce an exterior ring plus a CW hole.
  WeldArena arena;
  // Lower beam: U-shape bottom piece.
  arena.add_ring(Contour{{{0, 0}, {6, 0}, {6, 2}, {0, 2}}, false});
  // Upper beam: left wall, right wall (the void sits between them).
  arena.add_ring(Contour{{{0, 2}, {2, 2}, {2, 4}, {0, 4}}, false});
  arena.add_ring(Contour{{{4, 2}, {6, 2}, {6, 4}, {4, 4}}, false});
  // Cap beam.
  arena.add_ring(Contour{{{0, 4}, {6, 4}, {6, 6}, {0, 6}}, false});
  const auto out = welded(arena, {2.0, 4.0});
  ASSERT_EQ(out.num_contours(), 2u);
  double total = geom::signed_area(out);
  EXPECT_NEAR(total, 32.0, 1e-12);  // 36 minus the 2x2 void
  int holes = 0;
  for (const auto& c : out.contours)
    if (c.hole) {
      ++holes;
      EXPECT_LT(geom::signed_area(c), 0.0);
    }
  EXPECT_EQ(holes, 1);
  EXPECT_FALSE(geom::point_in_polygon({3, 3}, out));
  EXPECT_TRUE(geom::point_in_polygon({1, 1}, out));
}

TEST(WeldArena, UnweldedRingsPassThrough) {
  WeldArena arena;
  arena.add_ring(ccw_rect(0, 0, 1, 1));
  arena.add_ring(ccw_rect(5, 5, 6, 6));
  const auto out = arena.extract();
  EXPECT_EQ(out.num_contours(), 2u);
  EXPECT_NEAR(geom::signed_area(out), 2.0, 1e-12);
}

// One parallel phase over every line (flat) and the reduction tree weld
// the same rings.
TEST(WeldArena, FlatAndTreeStrategiesAgree) {
  par::ThreadPool pool(2);
  auto build = [] {
    WeldArena a;
    for (int i = 0; i < 8; ++i)
      a.add_ring(ccw_rect(0, i, 3 + (i % 2), i + 1));
    return a;
  };
  std::vector<double> ys;
  for (int i = 0; i <= 8; ++i) ys.push_back(i);
  std::vector<std::size_t> interior;
  for (std::size_t i = 1; i + 1 < ys.size(); ++i) interior.push_back(i);

  WeldArena flat = build();
  flat.weld_parallel(pool, interior, ys);
  WeldArena tree = build();
  const int phases = tree.weld_tree(pool, ys);
  EXPECT_GE(phases, 3);  // log2(8)
  const auto a = flat.extract();
  const auto b = tree.extract();
  EXPECT_EQ(a.num_contours(), 1u);
  EXPECT_TRUE(test::normalized_rings(a) == test::normalized_rings(b));
}

TEST(WeldArena, ChainOfWeldsAcrossOneLine) {
  // Three pieces over two pieces with interleaved subdivision points.
  WeldArena arena;
  arena.add_ring(ccw_rect(0, 0, 2.5, 1));
  arena.add_ring(ccw_rect(2.5, 0, 5, 1));
  arena.add_ring(ccw_rect(0, 1, 1.5, 2));
  arena.add_ring(ccw_rect(1.5, 1, 3.5, 2));
  arena.add_ring(ccw_rect(3.5, 1, 5, 2));
  const auto out = welded(arena, {1.0});
  ASSERT_EQ(out.num_contours(), 1u);
  EXPECT_NEAR(geom::signed_area(out), 10.0, 1e-12);
}

TEST(WeldArena, DegenerateRingsIgnored) {
  WeldArena arena;
  arena.add_ring(Contour{{{0, 0}, {1, 1}}, false});  // < 3 vertices
  EXPECT_EQ(arena.num_slots(), 0u);
  EXPECT_TRUE(arena.extract().empty());
}

// An input vertex on a line whose neighbours happen to be collinear with
// it is kept when the line's input vertices are given; a cut point on the
// same line is dropped either way.
TEST(DropCutVertices, InputVertexOnALineStays) {
  Contour ring{{{0, 0}, {4, 0}, {4, 1}, {4, 2}, {0, 2}, {0, 1}}, false};
  const std::vector<double> lines{1.0};
  LineVertices on;
  on.first = {0, 1};
  on.xs = {4.0};
  Contour kept = ring;
  drop_cut_vertices(kept, lines, &on);
  EXPECT_EQ(kept.pts, (std::vector<Point>{{0, 0}, {4, 0}, {4, 1}, {4, 2},
                                          {0, 2}}));
  drop_cut_vertices(ring, lines);
  EXPECT_EQ(ring.pts, (std::vector<Point>{{0, 0}, {4, 0}, {4, 2}, {0, 2}}));
}

}  // namespace
}  // namespace psclip::core
