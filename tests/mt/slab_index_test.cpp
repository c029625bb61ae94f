#include "mt/slab_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "geom/polygon.hpp"
#include "mt/algorithm2.hpp"
#include "seq/bounds.hpp"
#include "seq/vatti.hpp"
#include "test_support.hpp"

namespace psclip::mt {
namespace {

using geom::BoolOp;
using geom::Contour;
using geom::PolygonSet;

/// The shared bound table slab_clip builds (== vatti_clip's), its bound
/// heads (taken before the minima sort) and its schedule.
struct Table {
  seq::BoundTable bt;
  std::vector<std::int32_t> heads;
  std::vector<double> ys;
};

Table make_table(const PolygonSet& subject, const PolygonSet& clip = {}) {
  Table t;
  Contour prep;
  for (const auto& c : subject.contours)
    if (seq::prepare_contour_points(c, prep))
      seq::append_bounds(t.bt, prep, /*is_clip=*/false);
  for (const auto& c : clip.contours)
    if (seq::prepare_contour_points(c, prep))
      seq::append_bounds(t.bt, prep, /*is_clip=*/true);
  t.heads = bound_heads(t.bt);
  seq::sort_minima(t.bt);
  seq::scanbeam_ys_merged_into(t.bt, t.ys);
  return t;
}

/// O(n·p) reference: every edge tested against every line.
std::vector<std::vector<std::int32_t>> brute_force(
    const seq::BoundTable& bt, const std::vector<double>& lines) {
  std::vector<std::vector<std::int32_t>> per_line(lines.size());
  for (std::size_t j = 0; j < lines.size(); ++j)
    for (std::size_t e = 0; e < bt.edges.size(); ++e)
      if (bt.edges[e].bot.y < lines[j] && lines[j] < bt.edges[e].top.y)
        per_line[j].push_back(static_cast<std::int32_t>(e));
  return per_line;
}

/// Structural checks every index must pass, plus equality with the brute
/// force: lines strictly increasing and strictly between schedule values,
/// seed lists equal as sets, at least one probe per seed.
void expect_index_valid(const SlabIndex& idx, const Table& t) {
  ASSERT_EQ(idx.offsets.size(), idx.lines.size() + 1);
  ASSERT_EQ(idx.probes.size(), idx.lines.size());
  for (std::size_t j = 0; j < idx.lines.size(); ++j) {
    if (j > 0) EXPECT_LT(idx.lines[j - 1], idx.lines[j]);
    EXPECT_FALSE(std::binary_search(t.ys.begin(), t.ys.end(), idx.lines[j]))
        << "line " << j << " lies on a vertex ordinate";
  }
  const auto want = brute_force(t.bt, idx.lines);
  for (std::size_t j = 0; j < idx.lines.size(); ++j) {
    const auto span = idx.line_seeds(j);
    std::vector<std::int32_t> got(span.begin(), span.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want[j]) << "line " << j;
    EXPECT_GE(idx.probes[j], static_cast<std::int64_t>(got.size()));
    // A closed contour crosses a line an even number of times.
    EXPECT_EQ(got.size() % 2, 0u) << "line " << j;
  }
}

TEST(SlabIndex, MatchesBruteForceOnRandomField) {
  par::ThreadPool pool(4);
  const PolygonSet field = data::polygon_field(42, 80, 100.0, 10);
  const PolygonSet other = data::polygon_field(43, 60, 100.0, 9);
  const Table t = make_table(field, other);
  for (const unsigned slabs : {1u, 3u, 7u, 16u, 64u}) {
    const SlabIndex idx = build_slab_index(pool, t.bt, t.heads, t.ys, slabs);
    EXPECT_EQ(idx.num_slabs(), slabs) << "distinct ordinates are plenty";
    expect_index_valid(idx, t);
  }
}

// The index takes the bound heads in emission order instead of sorting
// them: they must already ascend, split the edge array into its chains,
// and equal what sorting the sorted minima's heads gives — so the index
// is the one the sort built.
TEST(SlabIndex, EmissionOrderHeadsNeedNoSort) {
  par::ThreadPool pool(4);
  const auto pair = data::synthetic_pair(7919, 3000);
  const Table tables[] = {
      make_table(data::polygon_field(42, 80, 100.0, 10),
                 data::polygon_field(43, 60, 100.0, 9)),
      make_table(pair.subject, pair.clip),
  };
  for (const Table& t : tables) {
    ASSERT_EQ(t.heads.size(), 2 * t.bt.minima.size());
    ASSERT_FALSE(t.heads.empty());
    EXPECT_EQ(t.heads.front(), 0);
    for (std::size_t k = 0; k < t.heads.size(); ++k) {
      const auto end = k + 1 < t.heads.size()
                           ? t.heads[k + 1]
                           : static_cast<std::int32_t>(t.bt.edges.size());
      ASSERT_LT(t.heads[k], end) << "heads ascend strictly";
      // Each head's chain runs contiguously up to the next head.
      for (std::int32_t e = t.heads[k]; e + 1 < end; ++e)
        ASSERT_EQ(t.bt.edges[static_cast<std::size_t>(e)].next, e + 1);
      ASSERT_EQ(t.bt.edges[static_cast<std::size_t>(end - 1)].next, -1);
    }
    std::vector<std::int32_t> sorted;
    for (const seq::LocalMin& lm : t.bt.minima) {
      sorted.push_back(lm.edge_left);
      sorted.push_back(lm.edge_right);
    }
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, t.heads);
    for (const unsigned slabs : {4u, 16u}) {
      const SlabIndex a = build_slab_index(pool, t.bt, t.heads, t.ys, slabs);
      const SlabIndex b = build_slab_index(pool, t.bt, sorted, t.ys, slabs);
      EXPECT_EQ(a.lines, b.lines);
      EXPECT_EQ(a.offsets, b.offsets);
      EXPECT_EQ(a.seeds, b.seeds);
      EXPECT_EQ(a.probes, b.probes);
      expect_index_valid(a, t);
    }
  }
}

TEST(SlabIndex, ContourTouchingSlabBoundaryIsInBothSlabs) {
  // A contour crossing a slab line lies in both slabs: the line cuts its
  // two bounds, whose crossing edges seed the upper slab's sweep.
  par::ThreadPool pool(2);
  PolygonSet a;
  a.add(geom::make_rect(0.0, 0.0, 4.0, 10.0));
  a.add(geom::make_polygon({{6.0, 1.0}, {9.0, 2.0}, {8.0, 9.0}}).contours[0]);
  const Table t = make_table(a);
  const SlabIndex idx = build_slab_index(pool, t.bt, t.heads, t.ys, 2);
  ASSERT_EQ(idx.num_slabs(), 2u);
  expect_index_valid(idx, t);
  EXPECT_EQ(idx.line_seeds(0).size(), 4u);  // two per contour
  for (const std::int32_t e : idx.line_seeds(0)) {
    const seq::BoundEdge& be = t.bt.edges[static_cast<std::size_t>(e)];
    EXPECT_LT(be.bot.y, idx.lines[0]);
    EXPECT_GT(be.top.y, idx.lines[0]);
  }
}

TEST(SlabIndex, ZeroHeightContourOnBoundaryIsInsideBothSlabs) {
  // A zero-height contour prepares to nothing: it adds no bound edges, so
  // no seeds, even where a line falls next to its ordinate. Lines skip
  // cuts between adjacent doubles instead of landing on a vertex.
  par::ThreadPool pool(2);
  PolygonSet a;
  a.add(geom::make_rect(0.0, 0.0, 4.0, 9.0));
  a.add({{2.0, 10.0}, {7.0, 10.0}, {5.0, 10.0}});
  a.add(geom::make_rect(0.0, 11.0, 4.0, 20.0));
  const Table t = make_table(a);
  for (const unsigned slabs : {2u, 3u, 8u}) {
    const SlabIndex idx = build_slab_index(pool, t.bt, t.heads, t.ys, slabs);
    expect_index_valid(idx, t);
  }
  const double y0 = 1.0, y1 = std::nextafter(1.0, 2.0);
  const std::vector<double> tight = {0.0, y0, y1, 2.0};
  const std::vector<double> lines = slab_lines(tight, 4);
  EXPECT_EQ(lines, (std::vector<double>{0.5, 1.5}));
}

TEST(SlabIndex, DegenerateAndOutOfRangeContours) {
  // Degenerate contours contribute no bounds; contours wholly inside one
  // slab contribute no seeds.
  par::ThreadPool pool(2);
  PolygonSet a;
  a.add({{1.0, 1.0}, {2.0, 2.0}});                  // two vertices
  a.add({{0.0, 5.0}, {3.0, 5.0}, {1.0, 5.0}});      // zero height
  a.add(geom::make_rect(0.0, 0.0, 1.0, 1.0));       // bottom slab only
  a.add(geom::make_rect(0.0, 30.0, 1.0, 31.0));     // top slab only
  a.add(geom::make_rect(5.0, 2.0, 6.0, 29.0));      // crosses every line
  const Table t = make_table(a);
  EXPECT_EQ(t.bt.minima.size(), 3u);
  for (const unsigned slabs : {3u, 6u, 12u}) {
    const SlabIndex idx = build_slab_index(pool, t.bt, t.heads, t.ys, slabs);
    expect_index_valid(idx, t);
    for (std::size_t j = 0; j < idx.lines.size(); ++j) {
      // Lines through the tall rectangle cut exactly its two sides.
      const bool tall = idx.lines[j] > 2.0 && idx.lines[j] < 29.0;
      const bool small = idx.lines[j] < 1.0 || idx.lines[j] > 30.0;
      if (tall && !small) EXPECT_EQ(idx.line_seeds(j).size(), 2u);
    }
  }
}

TEST(SlabIndex, EmptySlabsGetEmptyLists) {
  // Contours cluster far apart in y; lines between them cross nothing but
  // must still be addressable with valid (empty) spans.
  par::ThreadPool pool(2);
  PolygonSet a;
  for (int i = 0; i < 4; ++i)
    a.add(geom::make_rect(0.0, 10.0 * i, 5.0, 10.0 * i + 3.0));
  const Table t = make_table(a);
  const SlabIndex idx = build_slab_index(pool, t.bt, t.heads, t.ys, 16);
  expect_index_valid(idx, t);
  std::size_t empty = 0;
  for (std::size_t j = 0; j < idx.lines.size(); ++j)
    if (idx.line_seeds(j).empty()) ++empty;
  EXPECT_GT(empty, 0u);
  EXPECT_EQ(idx.seeds.size(),
            static_cast<std::size_t>(idx.offsets.back()));
}

TEST(SlabIndex, NoBoundsOrNoBoxes) {
  par::ThreadPool pool(2);
  const Table empty;
  const SlabIndex none =
      build_slab_index(pool, empty.bt, empty.heads, empty.ys, 8);
  EXPECT_EQ(none.num_slabs(), 1u);
  EXPECT_TRUE(none.seeds.empty());
  const Table t = make_table(geom::make_polygon({{0, 0}, {4, 1}, {2, 5}}));
  const SlabIndex one = build_slab_index(pool, t.bt, t.heads, t.ys, 1);
  EXPECT_EQ(one.num_slabs(), 1u);
  EXPECT_TRUE(one.lines.empty());
  EXPECT_EQ(one.offsets, std::vector<std::int64_t>{0});
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
  // input_edges must be the bound-edge count the slab's windowed sweep
  // really took in: its seeds plus the edges its minima and chains brought
  // in.
  par::ThreadPool pool(2);
  const PolygonSet a = data::polygon_field(303, 20, 40.0, 8);
  const PolygonSet b = data::polygon_field(404, 18, 40.0, 8);
  Alg2Options o;
  o.slabs = 6;
  Alg2Stats st;
  slab_clip(a, b, BoolOp::kIntersection, pool, o, &st);
  std::int64_t swept = 0, seeds = 0;
  for (const auto& s : st.slabs) {
    EXPECT_GE(s.input_edges, s.boundary_edges);
    swept += s.input_edges;
    seeds += s.boundary_edges;
  }
  // Every edge enters exactly one slab's sweep from its minimum or chain,
  // and the edges crossing a line enter the upper slab again as seeds.
  seq::VattiStats whole;
  seq::vatti_clip(a, b, BoolOp::kIntersection, &whole);
  EXPECT_GT(seeds, 0);
  EXPECT_EQ(swept, whole.edges + seeds);
}

TEST(SlabArena, PerThreadReuseAcrossRuns) {
  // One scratch per thread: the same object on every call from this
  // thread, another one on another thread.
  seq::VattiScratch& first = seq::thread_scratch();
  seq::VattiScratch& second = seq::thread_scratch();
  EXPECT_EQ(&first, &second);
  const seq::VattiScratch* other = nullptr;
  std::thread([&other] { other = &seq::thread_scratch(); }).join();
  EXPECT_NE(other, &first);

  // vatti_clip without a scratch sweeps on the thread's; passing it
  // explicitly is the same scratch.
  const std::uint64_t runs_before = first.runs;
  const PolygonSet a = test::random_polygon(11, 16, 0, 0, 5);
  const PolygonSet b = test::random_polygon(12, 14, 1, 0, 4);
  seq::VattiStats s1, s2;
  const PolygonSet r1 = seq::vatti_clip(a, b, BoolOp::kIntersection, &s1);
  const PolygonSet r2 =
      seq::vatti_clip(a, b, BoolOp::kIntersection, &s2, &first);
  EXPECT_EQ(first.runs, runs_before + 2);
  expect_identical(r1, r2, "scratch reuse");
  seq::VattiScratch fresh_scratch;
  const PolygonSet fresh =
      seq::vatti_clip(a, b, BoolOp::kIntersection, nullptr, &fresh_scratch);
  EXPECT_EQ(fresh_scratch.runs, 1u);
  expect_identical(r1, fresh, "scratch vs fresh");
}

}  // namespace
}  // namespace psclip::mt
