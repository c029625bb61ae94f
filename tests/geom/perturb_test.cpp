#include "geom/perturb.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "geom/area_oracle.hpp"
#include "seq/bounds.hpp"

namespace psclip::geom {
namespace {

TEST(RemoveHorizontals, SquareBecomesHorizontalFree) {
  PolygonSet p = make_polygon({{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  EXPECT_TRUE(has_horizontal_edges(p));
  const int moved = remove_horizontals(p.contours[0]);
  EXPECT_GT(moved, 0);
  EXPECT_FALSE(has_horizontal_edges(p));
}

TEST(RemoveHorizontals, AreaChangeIsTiny) {
  PolygonSet p = make_polygon({{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  const double before = even_odd_area(p);
  remove_horizontals(p.contours[0]);
  EXPECT_NEAR(even_odd_area(p), before, 1e-5);
}

TEST(RemoveHorizontals, NoOpWithoutHorizontals) {
  PolygonSet p = make_polygon({{0, 0}, {10, 1}, {9, 10}, {-1, 9}});
  EXPECT_FALSE(has_horizontal_edges(p));
  EXPECT_EQ(remove_horizontals(p.contours[0]), 0);
}

TEST(RemoveHorizontals, StaircaseConverges) {
  // Many consecutive horizontals of alternating direction: the repeated
  // passes must still reach a horizontal-free fixpoint.
  PolygonSet p = make_polygon({{0, 0}, {1, 0}, {1, 1}, {2, 1}, {2, 0},
                               {3, 0}, {3, 3}, {0, 3}});
  remove_horizontals(p.contours[0]);
  EXPECT_FALSE(has_horizontal_edges(p));
}

TEST(RemoveHorizontals, NearHorizontalNoiseIsRemoved) {
  // Edges with |dy| ~ 1e-15 (floating-point noise from upstream clipping)
  // are as degenerate for a sweep as exact horizontals and must be
  // perturbed away too.
  PolygonSet p = make_polygon(
      {{0, 0}, {10, 1e-15}, {10, 10}, {0, 10.0 + 1e-14}});
  remove_horizontals(p.contours[0]);
  const auto& c = p.contours[0];
  for (std::size_t i = 0, j = c.size() - 1; i < c.size(); j = i++) {
    const double dy = std::fabs(c[j].y - c[i].y);
    EXPECT_GT(dy, 1e-12) << "edge " << j << "->" << i;
  }
}

TEST(RemoveHorizontals, DeterministicPerContour) {
  // The same contour must perturb identically regardless of which polygon
  // set carries it (shared prepared fragments rely on this): the set's
  // prepared table starts with the lone contour's.
  PolygonSet lone = make_polygon({{0, 0}, {5, 0}, {5, 5}, {0, 5}});
  PolygonSet with_others = lone;
  with_others.add({{100, 100}, {101, 100}, {101, 101}});
  const seq::BoundTable a = seq::build_bounds(lone, {});
  const seq::BoundTable b = seq::build_bounds(with_others, {});
  ASSERT_LT(a.edges.size(), b.edges.size());
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].bot, b.edges[i].bot);
    EXPECT_EQ(a.edges[i].top, b.edges[i].top);
  }
}

TEST(Jitter, DeterministicInSeed) {
  PolygonSet a = make_polygon({{0, 0}, {5, 0}, {5, 5}});
  PolygonSet b = a;
  PolygonSet c = a;
  jitter(a, 1e-3, 42);
  jitter(b, 1e-3, 42);
  jitter(c, 1e-3, 43);
  EXPECT_EQ(a.contours[0][1], b.contours[0][1]);
  EXPECT_NE(a.contours[0][1], c.contours[0][1]);
}

TEST(Jitter, BoundedMagnitude) {
  PolygonSet a = make_polygon({{0, 0}, {5, 0}, {5, 5}});
  const PolygonSet orig = a;
  jitter(a, 1e-3, 7);
  for (std::size_t i = 0; i < a.contours[0].size(); ++i) {
    EXPECT_LE(std::fabs(a.contours[0][i].x - orig.contours[0][i].x), 1e-3);
    EXPECT_LE(std::fabs(a.contours[0][i].y - orig.contours[0][i].y), 1e-3);
  }
}

TEST(RemoveHorizontals, EmptyInput) {
  Contour c;
  EXPECT_EQ(remove_horizontals(c), 0);
  EXPECT_FALSE(has_horizontal_edges(PolygonSet{}));
}

}  // namespace
}  // namespace psclip::geom
