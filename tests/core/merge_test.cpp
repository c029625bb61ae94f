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

/// Weld `rings` along `lines`, extract, and drop the cut vertices on the
/// lines.
geom::PolygonSet welded(const std::vector<Contour>& rings,
                        const std::vector<double>& lines) {
  par::ThreadPool pool(2);
  return weld_seams(pool, rings, lines);
}

TEST(WeldArena, TwoStackedRectsBecomeOne) {
  std::vector<Contour> rings;
  rings.push_back(ccw_rect(0, 0, 4, 2));
  rings.push_back(ccw_rect(0, 2, 4, 5));
  const auto out = welded(rings, {2.0});
  ASSERT_EQ(out.num_contours(), 1u);
  EXPECT_NEAR(geom::signed_area(out), 20.0, 1e-12);
  EXPECT_FALSE(out.contours[0].hole);
  // The cut vertices on the weld line are dropped: 4 corners remain.
  EXPECT_EQ(out.contours[0].size(), 4u);
}

TEST(WeldArena, PartialOverlapSubdivides) {
  // Top side [0,4] welds against two bottoms [0,2] and [2,4].
  std::vector<Contour> rings;
  rings.push_back(ccw_rect(0, 0, 4, 2));
  rings.push_back(ccw_rect(0, 2, 2, 4));
  rings.push_back(ccw_rect(2, 2, 4, 4));
  const auto out = welded(rings, {2.0});
  ASSERT_EQ(out.num_contours(), 1u);
  EXPECT_NEAR(geom::signed_area(out), 16.0, 1e-12);
}

TEST(WeldArena, MismatchedSpansLeaveBoundary) {
  // Bottom rect is wider: only the shared [1,3] stretch welds; the rest
  // of the top side remains result boundary (an L-profile).
  std::vector<Contour> rings;
  rings.push_back(ccw_rect(0, 0, 4, 2));
  rings.push_back(ccw_rect(1, 2, 3, 4));
  const auto out = welded(rings, {2.0});
  ASSERT_EQ(out.num_contours(), 1u);
  EXPECT_NEAR(geom::signed_area(out), 12.0, 1e-12);
  EXPECT_TRUE(geom::point_in_polygon({2, 3}, out));
  EXPECT_FALSE(geom::point_in_polygon({0.5, 3}, out));
}

TEST(WeldArena, HoleEmergesClockwise) {
  // A ring of four trapezoid-ish pieces around a central void, stacked as
  // two beams: welding must produce an exterior ring plus a CW hole.
  std::vector<Contour> rings;
  // Lower beam: U-shape bottom piece.
  rings.push_back(Contour{{{0, 0}, {6, 0}, {6, 2}, {0, 2}}, false});
  // Upper beam: left wall, right wall (the void sits between them).
  rings.push_back(Contour{{{0, 2}, {2, 2}, {2, 4}, {0, 4}}, false});
  rings.push_back(Contour{{{4, 2}, {6, 2}, {6, 4}, {4, 4}}, false});
  // Cap beam.
  rings.push_back(Contour{{{0, 4}, {6, 4}, {6, 6}, {0, 6}}, false});
  const auto out = welded(rings, {2.0, 4.0});
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
  // The line between the two squares touches neither.
  const auto out = welded({ccw_rect(0, 0, 1, 1), ccw_rect(5, 5, 6, 6)}, {3.0});
  EXPECT_EQ(out.num_contours(), 2u);
  EXPECT_NEAR(geom::signed_area(out), 2.0, 1e-12);
}

// One phase welds every line of a stack of beams into one ring.
TEST(WeldArena, OnePhaseWeldsAStackOfBeams) {
  par::ThreadPool pool(2);
  std::vector<double> ys;
  for (int i = 1; i < 8; ++i) ys.push_back(i);
  WeldArena arena(ys);
  double area = 0.0;
  for (int i = 0; i < 8; ++i) {
    arena.add_ring(ccw_rect(0, i, 3 + (i % 2), i + 1));
    area += 3 + (i % 2);
  }
  arena.weld_parallel(pool);
  const auto out = arena.extract();
  ASSERT_EQ(out.num_contours(), 1u);
  EXPECT_NEAR(geom::signed_area(out), area, 1e-12);
}

TEST(WeldArena, ChainOfWeldsAcrossOneLine) {
  // Three pieces over two pieces with interleaved subdivision points.
  std::vector<Contour> rings;
  rings.push_back(ccw_rect(0, 0, 2.5, 1));
  rings.push_back(ccw_rect(2.5, 0, 5, 1));
  rings.push_back(ccw_rect(0, 1, 1.5, 2));
  rings.push_back(ccw_rect(1.5, 1, 3.5, 2));
  rings.push_back(ccw_rect(3.5, 1, 5, 2));
  const auto out = welded(rings, {1.0});
  ASSERT_EQ(out.num_contours(), 1u);
  EXPECT_NEAR(geom::signed_area(out), 10.0, 1e-12);
}

TEST(WeldArena, DegenerateRingsIgnored) {
  WeldArena arena(std::vector<double>{1.0});
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
