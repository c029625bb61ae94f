#include "mt/algorithm2.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "data/synthetic.hpp"
#include "geom/area_oracle.hpp"
#include "seq/vatti.hpp"
#include "test_support.hpp"

namespace psclip::mt {
namespace {

using geom::BoolOp;
using geom::PolygonSet;

PolygonSet square(double x0, double y0, double s) {
  return geom::make_polygon(
      {{x0, y0}, {x0 + s, y0}, {x0 + s, y0 + s}, {x0, y0 + s}});
}

TEST(Algorithm2, SquaresAllOpsAllSlabCounts) {
  par::ThreadPool pool(4);
  const PolygonSet a = square(0, 0, 10), b = square(5, 5, 10);
  for (unsigned slabs : {1u, 2u, 3u, 5u, 8u}) {
    Alg2Options o;
    o.slabs = slabs;
    for (const BoolOp op : geom::kAllOps) {
      const double got = geom::signed_area(slab_clip(a, b, op, pool, o));
      const double want = geom::boolean_area_oracle(a, b, op);
      EXPECT_TRUE(test::areas_match(got, want, 1e-5))
          << geom::to_string(op) << " slabs=" << slabs << " got=" << got
          << " want=" << want;
    }
  }
}

struct A2Case {
  std::uint64_t seed;
  int n1, n2;
  unsigned slabs;
  bool sx;
  unsigned pool_variant;  ///< index into kPoolThreads
};

constexpr unsigned kPoolThreads[] = {4, 2, 1};

class Algorithm2Differential : public ::testing::TestWithParam<A2Case> {};

TEST_P(Algorithm2Differential, MatchesOracle) {
  const A2Case c = GetParam();
  par::ThreadPool pool(kPoolThreads[c.pool_variant]);
  const PolygonSet a =
      test::random_polygon(c.seed * 2 + 1, c.n1, 0, 0, 10, c.sx);
  const PolygonSet b =
      test::random_polygon(c.seed * 2 + 2, c.n2, 1, -1, 8, false);
  Alg2Options o;
  o.slabs = c.slabs;
  for (const BoolOp op : geom::kAllOps) {
    Alg2Stats st;
    const double got = geom::signed_area(slab_clip(a, b, op, pool, o, &st));
    const double want = geom::boolean_area_oracle(a, b, op);
    EXPECT_TRUE(test::areas_match(got, want, 1e-5))
        << geom::to_string(op) << " slabs=" << c.slabs
        << " threads=" << pool.size() << " got=" << got << " want=" << want;
  }
}

std::vector<A2Case> make_cases() {
  std::vector<A2Case> cases;
  std::uint64_t seed = 3000;
  for (int rep = 0; rep < 12; ++rep) {
    A2Case c;
    c.seed = seed++;
    c.n1 = 8 + rep * 4;
    c.n2 = 6 + rep * 3;
    c.slabs = 1 + static_cast<unsigned>(rep % 7);
    c.pool_variant = static_cast<unsigned>(rep % 3);
    // One self-intersecting subject in this lane;
    // Algorithm2.SelfIntersectingSubjectsAllSlabCounts covers the rest.
    c.sx = rep == 4;
    cases.push_back(c);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, Algorithm2Differential,
                         ::testing::ValuesIn(make_cases()));

TEST(Algorithm2, SelfIntersectingSubjectsAllSlabCounts) {
  // Self-intersecting subjects need no special configuration: every slab
  // sweeps its window of the shared bound table with the Vatti sweep,
  // which handles self-crossings natively.
  par::ThreadPool pool(4);
  for (std::uint64_t seed : {5101u, 5102u, 5103u}) {
    const PolygonSet a = test::random_polygon(seed, 30, 0, 0, 10, true);
    const PolygonSet b = test::random_polygon(seed + 50, 24, 1, -1, 8, true);
    for (unsigned slabs : {1u, 4u, 16u}) {
      Alg2Options o;
      o.slabs = slabs;
      for (const BoolOp op : geom::kAllOps) {
        Alg2Stats st;
        const double got =
            geom::signed_area(slab_clip(a, b, op, pool, o, &st));
        const double want = geom::signed_area(seq::vatti_clip(a, b, op));
        EXPECT_TRUE(test::areas_match(got, want, 1e-12))
            << geom::to_string(op) << " seed=" << seed << " slabs=" << slabs
            << " got=" << got << " want=" << want;
        EXPECT_EQ(st.worst_rung(), Rung::kHealthy);
      }
    }
  }
}

TEST(Algorithm2, OversubscribeSweepMatchesSequentialVatti) {
  // Over-partitioning (c slabs per pool thread) changes the slab count and
  // the scheduling, never the clipped region: every setting must reproduce
  // the sequential Vatti reference.
  par::ThreadPool pool(4);
  const PolygonSet a = test::random_polygon(911, 40, 0, 0, 10);
  const PolygonSet b = test::random_polygon(912, 34, 1, -1, 9);
  for (unsigned c : {1u, 2u, 4u, 8u}) {
    Alg2Options o;
    o.slabs = c * pool.size();
    for (const BoolOp op : geom::kAllOps) {
      const double want = geom::signed_area(seq::vatti_clip(a, b, op));
      Alg2Stats st;
      const double got =
          geom::signed_area(slab_clip(a, b, op, pool, o, &st));
      EXPECT_TRUE(test::areas_match(got, want, 1e-5))
          << geom::to_string(op) << " slabs=" << c << "p got=" << got
          << " want=" << want;
      EXPECT_LE(st.slabs.size(), static_cast<std::size_t>(c) * pool.size());
      EXPECT_EQ(st.workers.size(), pool.size() + 1u);
      std::uint64_t jobs = 0;
      for (const auto& w : st.workers) jobs += w.slab_jobs;
      EXPECT_EQ(jobs, st.slabs.size());
    }
  }
}

TEST(Algorithm2, OversubscribedOutputIsScheduleInvariant) {
  // Same decomposition on 4 workers (dynamic) and on 1 worker (serial):
  // the outputs must match contour for contour, coordinate for coordinate.
  par::ThreadPool pool4(4), pool1(1);
  const PolygonSet a = test::random_polygon(921, 48, 0, 0, 10);
  const PolygonSet b = test::random_polygon(922, 40, 1, 0, 9);
  Alg2Options o;
  o.slabs = 16;  // fixed slab count => identical slab boundaries
  for (const BoolOp op : geom::kAllOps) {
    const PolygonSet out4 = slab_clip(a, b, op, pool4, o);
    const PolygonSet out1 = slab_clip(a, b, op, pool1, o);
    ASSERT_EQ(out4.num_contours(), out1.num_contours()) << geom::to_string(op);
    for (std::size_t i = 0; i < out4.contours.size(); ++i) {
      const auto& c4 = out4.contours[i];
      const auto& c1 = out1.contours[i];
      ASSERT_EQ(c4.pts.size(), c1.pts.size()) << geom::to_string(op);
      EXPECT_EQ(c4.hole, c1.hole);
      for (std::size_t j = 0; j < c4.pts.size(); ++j) {
        EXPECT_EQ(c4.pts[j].x, c1.pts[j].x);
        EXPECT_EQ(c4.pts[j].y, c1.pts[j].y);
      }
    }
  }
}

TEST(Algorithm2, StatsPhasesAndLoads) {
  par::ThreadPool pool(4);
  const PolygonSet a = test::random_polygon(71, 60, 0, 0, 10);
  const PolygonSet b = test::random_polygon(72, 50, 1, 0, 9);
  Alg2Options o;
  o.slabs = 4;
  Alg2Stats st;
  slab_clip(a, b, BoolOp::kIntersection, pool, o, &st);
  EXPECT_EQ(st.slabs.size(), 4u);
  for (const auto& s : st.slabs) {
    EXPECT_GE(s.seconds, 0.0);
    EXPECT_GE(s.input_edges, 0);
  }
  EXPECT_GE(st.phases.partition, 0.0);
  EXPECT_GE(st.phases.clip, 0.0);
  EXPECT_GE(st.phases.merge, 0.0);
  EXPECT_GT(st.phases.total(), 0.0);
  EXPECT_GE(st.load_imbalance(), 1.0);
  EXPECT_GT(st.output_contours, 0);
  // Fault isolation is always on; a clean run records one healthy
  // degradation report per slab and nothing else.
  ASSERT_EQ(st.degradation.size(), st.slabs.size());
  for (const auto& d : st.degradation) {
    EXPECT_EQ(d.rung, Rung::kHealthy);
    EXPECT_EQ(d.attempts, 1u);
    EXPECT_TRUE(d.message.empty());
  }
  EXPECT_EQ(st.degraded_slabs(), 0);
  EXPECT_EQ(st.worst_rung(), Rung::kHealthy);
}

TEST(Algorithm2, SingleSlabEqualsSequential) {
  par::ThreadPool pool(2);
  const PolygonSet a = test::random_polygon(81, 24, 0, 0, 10);
  const PolygonSet b = test::random_polygon(82, 20, 2, 1, 8);
  Alg2Options o;
  o.slabs = 1;
  const double got = geom::signed_area(
      slab_clip(a, b, BoolOp::kDifference, pool, o));
  const double want =
      geom::boolean_area_oracle(a, b, BoolOp::kDifference);
  EXPECT_TRUE(test::areas_match(got, want, 1e-5));
}

TEST(Algorithm2, MoreSlabsThanEvents) {
  par::ThreadPool pool(2);
  const PolygonSet a = square(0, 0, 2), b = square(1, 1, 2);
  Alg2Options o;
  o.slabs = 64;  // far more slabs than distinct ordinates
  const double got =
      geom::signed_area(slab_clip(a, b, BoolOp::kIntersection, pool, o));
  EXPECT_TRUE(test::areas_match(got, 1.0, 1e-4));
}

TEST(Algorithm2, EmptyInputs) {
  par::ThreadPool pool(2);
  EXPECT_TRUE(slab_clip({}, {}, BoolOp::kUnion, pool).empty());
  const PolygonSet a = square(0, 0, 4);
  EXPECT_NEAR(geom::signed_area(slab_clip(a, {}, BoolOp::kUnion, pool)),
              16.0, 1e-4);
}

TEST(Algorithm2, EmptyInputResetsReusedStats) {
  // A stats object reused across calls must not keep the previous run's
  // record when the next call returns early on empty input.
  par::ThreadPool pool(2);
  Alg2Stats st;
  st.slabs.resize(3);
  st.workers.resize(2);
  st.degradation.resize(3);
  st.degradation[1].rung = Rung::kPartialResult;
  st.partial.partial = true;
  st.partial.missing.push_back({1, 1, 0.0, 1.0});
  st.output_contours = 7;
  st.duplicates_removed = 2;
  st.phases.clip = 1.0;
  EXPECT_TRUE(slab_clip({}, {}, BoolOp::kUnion, pool, {}, &st).empty());
  EXPECT_TRUE(st.slabs.empty());
  EXPECT_TRUE(st.workers.empty());
  EXPECT_TRUE(st.degradation.empty());
  EXPECT_FALSE(st.partial.partial);
  EXPECT_TRUE(st.partial.missing.empty());
  EXPECT_EQ(st.output_contours, 0);
  EXPECT_EQ(st.duplicates_removed, 0);
  EXPECT_EQ(st.phases.clip, 0.0);
  EXPECT_EQ(st.worst_rung(), Rung::kHealthy);
}

// ---------------------------------------------------------------------------
// Two sets of polygons (GIS layers: polygons within one input do not
// overlap), the paper's §IV variant. Pieces of one polygon land in several
// slabs and are welded back at the merge, so every operator is exact.
// ---------------------------------------------------------------------------

struct MsCase {
  std::uint64_t seed;
  int count;
  unsigned slabs;
};

class MultisetDifferential : public ::testing::TestWithParam<MsCase> {};

TEST_P(MultisetDifferential, MatchesOracleAllOps) {
  par::ThreadPool pool(4);
  const MsCase c = GetParam();
  const PolygonSet a =
      data::polygon_field(c.seed * 2 + 1, c.count, 100.0, 8);
  const PolygonSet b =
      data::polygon_field(c.seed * 2 + 2, c.count, 100.0, 7);
  Alg2Options o;
  o.slabs = c.slabs;
  for (const BoolOp op : geom::kAllOps) {
    const double got = geom::signed_area(slab_clip(a, b, op, pool, o));
    const double want = geom::boolean_area_oracle(a, b, op);
    EXPECT_TRUE(test::areas_match(got, want, 1e-5))
        << geom::to_string(op) << " slabs=" << c.slabs << " got=" << got
        << " want=" << want;
  }
}

std::vector<MsCase> make_ms_cases() {
  std::vector<MsCase> cases;
  std::uint64_t seed = 9000;
  for (int rep = 0; rep < 10; ++rep)
    cases.push_back({seed++, 20 + rep * 8, 1 + static_cast<unsigned>(rep % 8)});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Fields, MultisetDifferential,
                         ::testing::ValuesIn(make_ms_cases()));

TEST(Multiset, UnionOfTouchingClustersIsExact) {
  par::ThreadPool pool(4);
  // A chain of pairwise-overlapping polygons crossing every slab line: the
  // weld must join the pieces of each cluster into Vatti's rings.
  PolygonSet a, b;
  for (int i = 0; i < 10; ++i) {
    // x-extents vary with i so no two rectangles share a collinear edge
    // (exactly coincident edges are outside the general-position contract).
    a.contours.push_back(geom::make_rect(0.0 + 0.13 * i, i * 4.0,
                                         3.0 + 0.07 * i, i * 4.0 + 5.0));
    b.contours.push_back(geom::make_rect(2.0 - 0.11 * i, i * 4.0 + 2.0,
                                         5.0 + 0.05 * i, i * 4.0 + 6.0));
  }
  Alg2Options o;
  o.slabs = 5;
  const PolygonSet got = slab_clip(a, b, BoolOp::kUnion, pool, o);
  const double want = geom::boolean_area_oracle(a, b, BoolOp::kUnion);
  EXPECT_TRUE(test::areas_match(geom::signed_area(got), want, 1e-4))
      << " got=" << geom::signed_area(got) << " want=" << want;
  const PolygonSet seq = seq::vatti_clip(a, b, BoolOp::kUnion);
  EXPECT_EQ(got.num_contours(), seq.num_contours());
  EXPECT_TRUE(test::normalized_rings(got) == test::normalized_rings(seq));
}

TEST(Multiset, DisjointLayersIntersectEmpty) {
  par::ThreadPool pool(2);
  const PolygonSet a = data::polygon_field(1, 16, 50.0, 6);
  PolygonSet b = data::polygon_field(2, 16, 50.0, 6);
  b = geom::transformed(b, 1.0, {1000.0, 1000.0});
  EXPECT_TRUE(slab_clip(a, b, BoolOp::kIntersection, pool).empty());
  const double uni = geom::signed_area(slab_clip(a, b, BoolOp::kUnion, pool));
  EXPECT_TRUE(test::areas_match(
      uni, geom::even_odd_area(a) + geom::even_odd_area(b), 1e-5));
}

TEST(Multiset, StatsFilled) {
  par::ThreadPool pool(4);
  const PolygonSet a = data::polygon_field(11, 30, 60.0, 8);
  const PolygonSet b = data::polygon_field(12, 30, 60.0, 8);
  Alg2Options o;
  o.slabs = 4;
  Alg2Stats st;
  slab_clip(a, b, BoolOp::kIntersection, pool, o, &st);
  EXPECT_GE(st.slabs.size(), 1u);
  EXPECT_LE(st.slabs.size(), 4u);
  EXPECT_GE(st.phases.clip, 0.0);
  EXPECT_GE(st.load_imbalance(), 1.0);
  EXPECT_EQ(st.duplicates_removed, 0);
  // Clean run under fault isolation: every slab healthy.
  ASSERT_EQ(st.degradation.size(), st.slabs.size());
  EXPECT_EQ(st.degraded_slabs(), 0);
  EXPECT_EQ(st.worst_rung(), Rung::kHealthy);
  // Slab tasks run through parallel_for: one record per pool worker
  // plus the calling thread, and every slab task counted exactly once.
  ASSERT_EQ(st.workers.size(), pool.size() + 1);
  std::uint64_t jobs = 0;
  for (const auto& w : st.workers) jobs += w.slab_jobs;
  EXPECT_EQ(jobs, st.slabs.size());
}

TEST(Multiset, EmptyInputs) {
  par::ThreadPool pool(2);
  EXPECT_TRUE(slab_clip({}, {}, BoolOp::kUnion, pool).empty());
  const PolygonSet a = data::polygon_field(3, 5, 20.0, 6);
  EXPECT_TRUE(test::areas_match(
      geom::signed_area(slab_clip(a, {}, BoolOp::kUnion, pool)),
      geom::even_odd_area(a), 1e-5));
}

}  // namespace
}  // namespace psclip::mt
