#include "seq/out_poly.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace psclip::seq {
namespace {

using geom::Point;

/// The single harvested contour's vertices, in order.
std::vector<Point> harvested_ring(const OutPolyPool& pool) {
  const geom::PolygonSet out = pool.harvest();
  EXPECT_EQ(out.num_contours(), 1u);
  return out.empty() ? std::vector<Point>{} : out.contours[0].pts;
}

TEST(OutPolyPool, SingleTriangleLifecycle) {
  OutPolyPool pool;
  // Minimum at (0,0); edge 1 owns the front, edge 2 the back.
  const auto id = pool.create({0, 0}, false, 1, 2);
  pool.extend(id, 1, {-1, 1});  // front grows left side
  pool.extend(id, 2, {1, 1});   // back grows right side
  pool.close(id, 1, id, 2, {0, 2});
  const auto out = pool.harvest();
  ASSERT_EQ(out.num_contours(), 1u);
  EXPECT_EQ(out.contours[0].size(), 4u);
  EXPECT_GT(geom::signed_area(out.contours[0]), 0.0);  // exterior: CCW
}

TEST(OutPolyPool, UnclosedPolysAreNotHarvested) {
  OutPolyPool pool;
  const auto id = pool.create({0, 0}, false, 1, 2);
  pool.extend(id, 1, {-1, 1});
  EXPECT_TRUE(pool.harvest().empty());
}

TEST(OutPolyPool, MergeTwoPartialsBackToFront) {
  OutPolyPool pool;
  const auto a = pool.create({0, 0}, false, 1, 2);
  const auto b = pool.create({4, 0}, false, 3, 4);
  pool.extend(a, 1, {-1, 2});
  pool.extend(a, 2, {1, 2});
  pool.extend(b, 3, {3, 2});
  pool.extend(b, 4, {5, 2});
  // a's back (edge 2) meets b's front (edge 3) at (2, 3).
  pool.close(a, 2, b, 3, {2, 3});
  EXPECT_EQ(pool.resolve(a), pool.resolve(b));
  // Close the surviving ring with the remaining ends.
  pool.close(pool.resolve(a), 1, pool.resolve(b), 4, {2, 5});
  const auto out = pool.harvest();
  ASSERT_EQ(out.num_contours(), 1u);
  EXPECT_EQ(out.contours[0].size(), 8u);
}

TEST(OutPolyPool, MergeSamePolarityReverses) {
  // Two partials meeting front-to-front: the pool must reverse one list
  // instead of producing a corrupted chain.
  OutPolyPool pool;
  const auto a = pool.create({0, 0}, false, 1, 2);
  const auto b = pool.create({4, 0}, false, 3, 4);
  pool.extend(a, 1, {-1, 2});
  pool.extend(b, 3, {3, 2});
  pool.close(a, 1, b, 3, {1, 3});  // front meets front
  const auto merged = pool.resolve(a);
  EXPECT_EQ(merged, pool.resolve(b));
  pool.close(merged, 2, merged, 4, {2, 4});
  const auto out = pool.harvest();
  ASSERT_EQ(out.num_contours(), 1u);
  // All six points present.
  EXPECT_EQ(out.contours[0].size(), 6u);
}

TEST(OutPolyPool, HoleFlagFollowsLowestMinimum) {
  OutPolyPool pool;
  // A hole-start partial created above a regular partial: when merged,
  // the surviving ring keeps the flag of the *lower* origin.
  const auto lo = pool.create({0, 0}, false, 1, 2);
  const auto hi = pool.create({1, 5}, true, 3, 4);
  pool.close(lo, 2, hi, 3, {2, 6});
  pool.close(pool.resolve(lo), 1, pool.resolve(hi), 4, {0, 7});
  const auto out = pool.harvest();
  ASSERT_EQ(out.num_contours(), 1u);
  EXPECT_FALSE(out.contours[0].hole);
  EXPECT_GT(geom::signed_area(out.contours[0]), 0.0);
}

TEST(OutPolyPool, HoleContoursComeOutClockwise) {
  OutPolyPool pool;
  const auto id = pool.create({0, 0}, true, 1, 2);
  pool.extend(id, 1, {-1, 1});
  pool.extend(id, 2, {1, 1});
  pool.close(id, 1, id, 2, {0, 2});
  const auto out = pool.harvest();
  ASSERT_EQ(out.num_contours(), 1u);
  EXPECT_TRUE(out.contours[0].hole);
  EXPECT_LT(geom::signed_area(out.contours[0]), 0.0);
}

TEST(OutPolyPool, LocateEndAndExtendReassign) {
  OutPolyPool pool;
  const auto id = pool.create({0, 0}, false, 10, 20);
  const auto front = pool.locate_end(id, 10);
  const auto back = pool.locate_end(id, 20);
  EXPECT_TRUE(front.front);
  EXPECT_FALSE(back.front);
  pool.extend_reassign_end(front, {-1, 1}, 11);
  pool.extend_reassign_end(back, {1, 1}, 21);
  // Old owners are gone; new ones extend.
  pool.extend(id, 11, {-2, 2});
  pool.extend(id, 21, {2, 2});
  pool.close(id, 11, id, 21, {0, 3});
  EXPECT_EQ(pool.harvest().contours[0].size(), 6u);
}

TEST(OutPolyPool, ExtendReassignMovesOwnership) {
  OutPolyPool pool;
  const auto id = pool.create({0, 0}, false, 1, 2);
  pool.extend_reassign(id, 1, {-1, 1}, 5);  // edge 5 now owns the front
  pool.extend(id, 5, {-2, 2});
  pool.close(id, 5, id, 2, {0, 3});
  const auto out = pool.harvest();
  ASSERT_EQ(out.num_contours(), 1u);
  EXPECT_EQ(out.contours[0].size(), 4u);
}

TEST(OutPolyPool, HarvestDropsDegenerateRings) {
  OutPolyPool pool;
  const auto id = pool.create({0, 0}, false, 1, 2);
  pool.close(id, 1, id, 2, {0, 0});  // single repeated point
  EXPECT_TRUE(pool.harvest().empty());
}

TEST(OutPolyPool, MinAreaFilter) {
  OutPolyPool pool;
  const auto id = pool.create({0, 0}, false, 1, 2);
  pool.extend(id, 1, {-0.001, 0.001});
  pool.extend(id, 2, {0.001, 0.001});
  pool.close(id, 1, id, 2, {0, 0.002});
  EXPECT_EQ(pool.harvest(0.0).num_contours(), 1u);
  EXPECT_EQ(pool.harvest(1.0).num_contours(), 0u);
}

// Scripted sequences with the exact vertex order they must produce. Each
// script's ring comes out counter-clockwise, so harvest keeps the chain's
// order and start vertex as they are.

TEST(OutPolyPool, ExtendsAtFrontAndBackInOrder) {
  OutPolyPool pool;
  const auto id = pool.create({0, 0}, false, 1, 2);
  pool.extend(id, 1, {-1, 1});  // front: [A, O]
  pool.extend(id, 2, {1, 1});   // back:  [A, O, B]
  pool.extend(id, 1, {-1, 2});  // front: [C, A, O, B]
  pool.extend(id, 2, {1, 2});   // back:  [C, A, O, B, D]
  pool.close(id, 1, id, 2, {0, 3});
  EXPECT_EQ(pool.total_vertices(), 6u);
  EXPECT_EQ(harvested_ring(pool),
            (std::vector<Point>{{-1, 2}, {-1, 1}, {0, 0}, {1, 1}, {1, 2},
                                {0, 3}}));
}

TEST(OutPolyPool, SamePolarityCloseReversesTheShorterChain) {
  OutPolyPool pool;
  const auto a = pool.create({0, 0}, false, 1, 2);
  pool.extend(a, 1, {0, 2});    // a: [(0,2), (0,0)]
  pool.extend(a, 2, {1, -1});   // a: [(0,2), (0,0), (1,-1)], 3 vertices
  const auto b = pool.create({4, 0}, false, 3, 4);
  pool.extend(b, 3, {4, 2});    // b: [(4,2), (4,0)], 2 vertices
  // Front meets front: b, the shorter, reverses to [(4,0), (4,2)] and
  // a's chain follows it through the meeting point.
  pool.close(a, 1, b, 3, {2, 3});
  EXPECT_EQ(pool.resolve(a), b);
  pool.close(b, 4, a, 2, {3, -1});
  // Reversing a instead would give the same ring started at (3,-1).
  EXPECT_EQ(harvested_ring(pool),
            (std::vector<Point>{{4, 0}, {4, 2}, {2, 3}, {0, 2}, {0, 0},
                                {1, -1}, {3, -1}}));
}

TEST(OutPolyPool, BackToBackCloseReversesTheShorterChain) {
  OutPolyPool pool;
  const auto a = pool.create({0, 0}, false, 1, 2);
  pool.extend(a, 2, {1, 1});    // a: [(0,0), (1,1)], 2 vertices
  const auto b = pool.create({3, 0}, false, 3, 4);
  pool.extend(b, 4, {2, 1});    // b: [(3,0), (2,1)]
  pool.extend(b, 3, {4, -1});   // b: [(4,-1), (3,0), (2,1)], 3 vertices
  // Back meets back: a reverses to [(1,1), (0,0)] and becomes the head.
  pool.close(a, 2, b, 4, {1.5, 2});
  EXPECT_EQ(pool.resolve(a), b);
  pool.close(b, 3, b, 1, {-1, -1});
  EXPECT_EQ(harvested_ring(pool),
            (std::vector<Point>{{4, -1}, {3, 0}, {2, 1}, {1.5, 2}, {1, 1},
                                {0, 0}, {-1, -1}}));
}

TEST(OutPolyPool, MergesThroughARedirect) {
  OutPolyPool pool;
  const auto a = pool.create({0, 0}, false, 1, 2);
  const auto b = pool.create({4, 0}, false, 3, 4);
  pool.close(a, 2, b, 3, {2, -1});  // a: [(0,0), (2,-1), (4,0)]; b -> a
  EXPECT_EQ(pool.resolve(b), a);
  pool.extend(b, 4, {5, 2});        // through b's redirect to a's back
  const auto c = pool.create({2, 5}, false, 5, 6);
  pool.close(b, 4, c, 5, {4, 4});   // c's chain follows; c -> a
  EXPECT_EQ(pool.resolve(c), a);
  pool.close(c, 6, b, 1, {0, 4});   // both ids resolve to a: the ring closes
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(harvested_ring(pool),
            (std::vector<Point>{{0, 0}, {2, -1}, {4, 0}, {5, 2}, {4, 4},
                                {2, 5}, {0, 4}}));
}

TEST(OutPolyPool, HarvestCollapsesDuplicatesAndOrients) {
  // The chain [(2,0), (0,0), (0,0), (0,2), (2,2), (2,2), (2,0)] is
  // clockwise, repeats two vertices and ends where it starts.
  for (const bool hole : {false, true}) {
    OutPolyPool pool;
    const auto id = pool.create({0, 0}, hole, 1, 2);
    pool.extend(id, 2, {0, 0});
    pool.extend(id, 2, {0, 2});
    pool.extend(id, 2, {2, 2});
    pool.extend(id, 2, {2, 2});
    pool.extend(id, 1, {2, 0});
    pool.close(id, 1, id, 2, {2, 0});
    const geom::PolygonSet out = pool.harvest();
    ASSERT_EQ(out.num_contours(), 1u);
    EXPECT_EQ(out.contours[0].hole, hole);
    // An exterior comes out counter-clockwise (reversed), a hole
    // clockwise (as traced).
    EXPECT_EQ(out.contours[0].pts,
              hole ? (std::vector<Point>{{2, 0}, {0, 0}, {0, 2}, {2, 2}})
                   : (std::vector<Point>{{2, 2}, {0, 2}, {0, 0}, {2, 0}}));
  }
}

TEST(OutPolyPool, ResetKeepsCapacityAndZeroesTheVertexCount) {
  OutPolyPool pool;
  pool.reserve(8);
  for (int k = 0; k < 4; ++k) {
    const double x = 10.0 * k;
    const auto id = pool.create({x, 0}, false, 1, 2);
    for (int i = 1; i <= 50; ++i) {
      pool.extend(id, 1, {x - 1, static_cast<double>(i)});
      pool.extend(id, 2, {x + 1, static_cast<double>(i)});
    }
    pool.close(id, 1, id, 2, {x, 51});
  }
  EXPECT_EQ(pool.total_vertices(), 4u * 102u);
  const std::size_t bytes = pool.resident_bytes();
  EXPECT_GE(bytes, pool.total_vertices() * sizeof(Point));
  pool.reset();
  EXPECT_EQ(pool.total_vertices(), 0u);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_TRUE(pool.harvest().empty());
  EXPECT_EQ(pool.resident_bytes(), bytes);
  // A smaller run after the reset reuses the capacity and sees nothing of
  // the run before.
  const auto id = pool.create({0, 0}, false, 1, 2);
  pool.extend(id, 1, {-1, 1});
  pool.extend(id, 2, {1, 1});
  pool.close(id, 1, id, 2, {0, 2});
  EXPECT_EQ(pool.total_vertices(), 4u);
  EXPECT_EQ(pool.resident_bytes(), bytes);
  EXPECT_EQ(harvested_ring(pool),
            (std::vector<Point>{{-1, 1}, {0, 0}, {1, 1}, {0, 2}}));
}

}  // namespace
}  // namespace psclip::seq
