#include "mt/slab_index.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "data/synthetic.hpp"
#include "geom/polygon.hpp"
#include "mt/algorithm2.hpp"
#include "mt/arena.hpp"
#include "seq/vatti.hpp"
#include "test_support.hpp"

namespace psclip::mt {
namespace {

using geom::BBox;
using geom::BoolOp;
using geom::Contour;
using geom::PolygonSet;

/// O(n·p) reference: the broadcast classification every slab task used to
/// run, expressed as index entries. Closed-interval y-overlap, per-slab
/// containment — exactly what rect_clip decides from geom::bounds when the
/// slab rectangle is inflated in x beyond every contour.
std::vector<std::vector<SlabEntry>> brute_force(
    const std::vector<BBox>& boxes, const std::vector<double>& bounds) {
  std::vector<std::vector<SlabEntry>> per_slab(bounds.size() - 1);
  for (std::size_t t = 0; t + 1 < bounds.size(); ++t) {
    for (std::size_t i = 0; i < boxes.size(); ++i) {
      const BBox& b = boxes[i];
      if (b.empty() || !b.overlaps_y(bounds[t], bounds[t + 1])) continue;
      const bool inside = b.ymin >= bounds[t] && b.ymax <= bounds[t + 1];
      per_slab[t].push_back({static_cast<std::uint32_t>(i), inside});
    }
  }
  return per_slab;
}

void expect_index_equals(const SlabContourIndex& idx,
                         const std::vector<std::vector<SlabEntry>>& want) {
  ASSERT_EQ(idx.num_slabs(), want.size());
  for (std::size_t t = 0; t < want.size(); ++t) {
    const auto got = idx.slab(t);
    ASSERT_EQ(got.size(), want[t].size()) << "slab " << t;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].contour, want[t][k].contour) << "slab " << t;
      EXPECT_EQ(got[k].inside, want[t][k].inside)
          << "slab " << t << " contour " << got[k].contour;
      if (k > 0)
        EXPECT_LT(got[k - 1].contour, got[k].contour)
            << "slab list not ascending";
    }
  }
}

TEST(SlabIndex, MatchesBruteForceOnRandomField) {
  par::ThreadPool pool(4);
  const PolygonSet field = data::polygon_field(42, 80, 100.0, 10);
  const std::vector<BBox> boxes = geom::contour_bounds(field);
  for (const std::size_t nslabs : {1u, 3u, 7u, 16u, 64u}) {
    std::vector<double> bounds;
    for (std::size_t t = 0; t <= nslabs; ++t)
      bounds.push_back(-1.0 + 102.0 * static_cast<double>(t) /
                                  static_cast<double>(nslabs));
    const SlabContourIndex idx = build_slab_index(pool, boxes, bounds);
    expect_index_equals(idx, brute_force(boxes, bounds));
    EXPECT_GE(idx.total_entries(),
              static_cast<std::int64_t>(field.num_contours()));
  }
}

TEST(SlabIndex, ContourTouchingSlabBoundaryIsInBothSlabs) {
  par::ThreadPool pool(2);
  const std::vector<double> bounds = {0.0, 10.0, 20.0};
  // ymax lands exactly on the interior boundary: closed intervals put the
  // contour in slab 0 (fully inside) *and* slab 1 (touching its bottom).
  std::vector<BBox> boxes(1);
  boxes[0].expand(geom::Point{2.0, 1.0});
  boxes[0].expand(geom::Point{5.0, 10.0});
  const SlabContourIndex idx = build_slab_index(pool, boxes, bounds);
  ASSERT_EQ(idx.num_slabs(), 2u);
  ASSERT_EQ(idx.slab(0).size(), 1u);
  ASSERT_EQ(idx.slab(1).size(), 1u);
  EXPECT_TRUE(idx.slab(0)[0].inside);
  EXPECT_FALSE(idx.slab(1)[0].inside);
  expect_index_equals(idx, brute_force(boxes, bounds));
}

TEST(SlabIndex, ZeroHeightContourOnBoundaryIsInsideBothSlabs) {
  par::ThreadPool pool(2);
  const std::vector<double> bounds = {0.0, 10.0, 20.0};
  // Degenerate horizontal contour sitting exactly on the boundary: its
  // closed y-interval [10, 10] is contained in both [0, 10] and [10, 20],
  // so it must be "fully inside" (move-not-clip) in *both* slabs — the
  // lo==hi shortcut would get this wrong and break broadcast bit-identity.
  std::vector<BBox> boxes(1);
  boxes[0].expand(geom::Point{2.0, 10.0});
  boxes[0].expand(geom::Point{7.0, 10.0});
  const SlabContourIndex idx = build_slab_index(pool, boxes, bounds);
  ASSERT_EQ(idx.slab(0).size(), 1u);
  ASSERT_EQ(idx.slab(1).size(), 1u);
  EXPECT_TRUE(idx.slab(0)[0].inside);
  EXPECT_TRUE(idx.slab(1)[0].inside);
  expect_index_equals(idx, brute_force(boxes, bounds));
}

TEST(SlabIndex, DegenerateAndOutOfRangeContours) {
  par::ThreadPool pool(2);
  const std::vector<double> bounds = {0.0, 5.0, 10.0};
  std::vector<BBox> boxes(4);
  // boxes[0]: never expanded — empty bbox, must produce no entries.
  boxes[1].expand(geom::Point{1.0, -3.0});  // entirely below bounds.front()
  boxes[1].expand(geom::Point{2.0, -1.0});
  boxes[2].expand(geom::Point{1.0, 12.0});  // entirely above bounds.back()
  boxes[2].expand(geom::Point{2.0, 14.0});
  boxes[3].expand(geom::Point{0.0, 2.0});  // ordinary, slab 0 only
  boxes[3].expand(geom::Point{9.0, 3.0});
  const SlabContourIndex idx = build_slab_index(pool, boxes, bounds);
  EXPECT_EQ(idx.total_entries(), 1);
  ASSERT_EQ(idx.slab(0).size(), 1u);
  EXPECT_EQ(idx.slab(0)[0].contour, 3u);
  EXPECT_TRUE(idx.slab(0)[0].inside);
  EXPECT_EQ(idx.slab(1).size(), 0u);
  expect_index_equals(idx, brute_force(boxes, bounds));
}

TEST(SlabIndex, EmptySlabsGetEmptyLists) {
  par::ThreadPool pool(2);
  // All contours cluster in the outermost slabs; the middle ones are empty
  // but must still be addressable with valid (empty) spans.
  std::vector<double> bounds;
  for (int t = 0; t <= 8; ++t) bounds.push_back(static_cast<double>(10 * t));
  std::vector<BBox> boxes(2);
  boxes[0].expand(geom::Point{0.0, 1.0});
  boxes[0].expand(geom::Point{5.0, 4.0});
  boxes[1].expand(geom::Point{0.0, 76.0});
  boxes[1].expand(geom::Point{5.0, 79.0});
  const SlabContourIndex idx = build_slab_index(pool, boxes, bounds);
  EXPECT_EQ(idx.slab(0).size(), 1u);
  for (std::size_t t = 1; t < 7; ++t) EXPECT_EQ(idx.slab(t).size(), 0u);
  EXPECT_EQ(idx.slab(7).size(), 1u);
  expect_index_equals(idx, brute_force(boxes, bounds));
}

TEST(SlabIndex, NoBoundsOrNoBoxes) {
  par::ThreadPool pool(2);
  std::vector<BBox> boxes(1);
  boxes[0].expand(geom::Point{0.0, 0.0});
  boxes[0].expand(geom::Point{1.0, 1.0});
  EXPECT_EQ(build_slab_index(pool, boxes, std::vector<double>{}).num_slabs(),
            0u);
  const SlabContourIndex idx =
      build_slab_index(pool, std::vector<BBox>{}, std::vector<double>{0., 1.});
  EXPECT_EQ(idx.num_slabs(), 1u);
  EXPECT_EQ(idx.total_entries(), 0);
}

void expect_identical(const PolygonSet& a, const PolygonSet& b,
                      const char* what) {
  ASSERT_EQ(a.num_contours(), b.num_contours()) << what;
  for (std::size_t i = 0; i < a.contours.size(); ++i) {
    ASSERT_EQ(a.contours[i].pts.size(), b.contours[i].pts.size()) << what;
    EXPECT_EQ(a.contours[i].hole, b.contours[i].hole) << what;
    for (std::size_t j = 0; j < a.contours[i].pts.size(); ++j) {
      EXPECT_EQ(a.contours[i].pts[j].x, b.contours[i].pts[j].x) << what;
      EXPECT_EQ(a.contours[i].pts[j].y, b.contours[i].pts[j].y) << what;
    }
  }
}

TEST(Algorithm2Partition, InputEdgesReportPostIndexVattiWork) {
  // input_edges must be the bound-edge count the slab's Vatti sweep really
  // processed (post-partition, post-cleaning) — equal to what a direct
  // vatti_clip on the same slab inputs reports, and 0 for empty slabs.
  par::ThreadPool pool(2);
  const PolygonSet a = data::polygon_field(303, 20, 40.0, 8);
  const PolygonSet b = data::polygon_field(404, 18, 40.0, 8);
  Alg2Options o;
  o.slabs = 6;
  Alg2Stats st;
  slab_clip(a, b, BoolOp::kIntersection, pool, o, &st);
  std::int64_t swept = 0;
  for (const auto& s : st.slabs) {
    EXPECT_GE(s.input_edges, 0);
    swept += s.input_edges;
  }
  // Slab partitioning duplicates straddling contours, so the summed swept
  // edges are at least the edges one unpartitioned run would sweep.
  seq::VattiStats whole;
  seq::vatti_clip(a, b, BoolOp::kIntersection, &whole);
  EXPECT_GE(swept, whole.edges);
}

TEST(SlabArena, PerThreadReuseAcrossRuns) {
  SlabArena& first = worker_arena();
  SlabArena& second = worker_arena();
  EXPECT_EQ(&first, &second);  // same thread, same arena
  EXPECT_GE(worker_arena_count(), 1u);

  const std::uint64_t runs_before = first.vatti.runs;
  const PolygonSet a = test::random_polygon(11, 16, 0, 0, 5);
  const PolygonSet b = test::random_polygon(12, 14, 1, 0, 4);
  seq::VattiStats s1, s2;
  const PolygonSet r1 =
      seq::vatti_clip(a, b, BoolOp::kIntersection, &s1, &first.vatti);
  const PolygonSet r2 =
      seq::vatti_clip(a, b, BoolOp::kIntersection, &s2, &first.vatti);
  EXPECT_EQ(first.vatti.runs, runs_before + 2);
  expect_identical(r1, r2, "scratch reuse");
  const PolygonSet fresh = seq::vatti_clip(a, b, BoolOp::kIntersection);
  expect_identical(r1, fresh, "scratch vs fresh");
}

}  // namespace
}  // namespace psclip::mt
