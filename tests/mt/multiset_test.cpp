#include "mt/multiset.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "data/synthetic.hpp"
#include "geom/area_oracle.hpp"
#include "test_support.hpp"

namespace psclip::mt {
namespace {

using geom::BoolOp;
using geom::PolygonSet;

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
  MultisetOptions o;
  o.slabs = c.slabs;
  for (const BoolOp op : geom::kAllOps) {
    Alg2Stats st;
    const double got =
        geom::signed_area(multiset_clip(a, b, op, pool, o, &st));
    const double want = geom::boolean_area_oracle(a, b, op);
    EXPECT_TRUE(test::areas_match(got, want, 1e-5))
        << geom::to_string(op) << " slabs=" << c.slabs << " got=" << got
        << " want=" << want;
  }
}

std::vector<MsCase> make_cases() {
  std::vector<MsCase> cases;
  std::uint64_t seed = 9000;
  for (int rep = 0; rep < 10; ++rep)
    cases.push_back({seed++, 20 + rep * 8, 1 + static_cast<unsigned>(rep % 8)});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Fields, MultisetDifferential,
                         ::testing::ValuesIn(make_cases()));

TEST(Multiset, DuplicateEliminationTriggers) {
  par::ThreadPool pool(4);
  // Few large polygons spanning several slabs: replication must produce
  // duplicates and the post-processing must remove them.
  PolygonSet a, b;
  for (int i = 0; i < 4; ++i) {
    auto pa = test::random_polygon(100 + i, 16, i * 25.0, 50, 12);
    auto pb = test::random_polygon(200 + i, 14, i * 25.0 + 3, 52, 12);
    a.contours.push_back(pa.contours[0]);
    b.contours.push_back(pb.contours[0]);
  }
  MultisetOptions o;
  o.slabs = 6;
  Alg2Stats st;
  const double got = geom::signed_area(
      multiset_clip(a, b, BoolOp::kIntersection, pool, o, &st));
  const double want =
      geom::boolean_area_oracle(a, b, BoolOp::kIntersection);
  EXPECT_TRUE(test::areas_match(got, want, 1e-5));
  // With 6 slabs over 4 overlapping pairs, replication must have occurred.
  EXPECT_GE(st.duplicates_removed + static_cast<std::int64_t>(st.slabs.size()),
            1);
}

TEST(Multiset, UnionOfTouchingClustersIsExact) {
  par::ThreadPool pool(4);
  // A chain of pairwise-overlapping polygons crossing all slab boundaries:
  // the block-closure assignment must keep the union exact.
  PolygonSet a, b;
  for (int i = 0; i < 10; ++i) {
    // x-extents vary with i so no two rectangles share a collinear edge
    // (exactly coincident edges are outside the general-position contract).
    a.contours.push_back(geom::make_rect(0.0 + 0.13 * i, i * 4.0,
                                         3.0 + 0.07 * i, i * 4.0 + 5.0));
    b.contours.push_back(geom::make_rect(2.0 - 0.11 * i, i * 4.0 + 2.0,
                                         5.0 + 0.05 * i, i * 4.0 + 6.0));
  }
  MultisetOptions o;
  o.slabs = 5;
  const double got =
      geom::signed_area(multiset_clip(a, b, BoolOp::kUnion, pool, o));
  const double want = geom::boolean_area_oracle(a, b, BoolOp::kUnion);
  EXPECT_TRUE(test::areas_match(got, want, 1e-4))
      << " got=" << got << " want=" << want;
}

class MultisetModes : public ::testing::TestWithParam<MultisetAssign> {};

TEST_P(MultisetModes, IntersectionExactUnderEveryAssignment) {
  par::ThreadPool pool(4);
  const PolygonSet a = data::polygon_field(301, 48, 90.0, 8);
  const PolygonSet b = data::polygon_field(302, 48, 90.0, 7);
  MultisetOptions o;
  o.slabs = 5;
  o.assign = GetParam();
  const double got = geom::signed_area(
      multiset_clip(a, b, BoolOp::kIntersection, pool, o));
  const double want =
      geom::boolean_area_oracle(a, b, BoolOp::kIntersection);
  EXPECT_TRUE(test::areas_match(got, want, 1e-5))
      << to_string(GetParam()) << " got=" << got << " want=" << want;
}

TEST_P(MultisetModes, DifferenceExactUnderExactAssignments) {
  if (GetParam() == MultisetAssign::kReplicate)
    GTEST_SKIP() << "replicate is the paper's approximate scheme for "
                    "non-intersection ops";
  par::ThreadPool pool(4);
  const PolygonSet a = data::polygon_field(311, 40, 80.0, 8);
  const PolygonSet b = data::polygon_field(312, 40, 80.0, 7);
  MultisetOptions o;
  o.slabs = 6;
  o.assign = GetParam();
  const double got = geom::signed_area(
      multiset_clip(a, b, BoolOp::kDifference, pool, o));
  const double want = geom::boolean_area_oracle(a, b, BoolOp::kDifference);
  EXPECT_TRUE(test::areas_match(got, want, 1e-5))
      << to_string(GetParam()) << " got=" << got << " want=" << want;
}

INSTANTIATE_TEST_SUITE_P(Assignments, MultisetModes,
                         ::testing::Values(MultisetAssign::kAuto,
                                           MultisetAssign::kSubjectOwner,
                                           MultisetAssign::kReplicate,
                                           MultisetAssign::kBlockClosure));

TEST(Multiset, SubjectOwnerDoesNotInflateWork) {
  // Each interacting pair must be clipped exactly once: the summed slab
  // input can exceed the input (clip replication) but outputs never need
  // dedup and total output equals the sequential output.
  par::ThreadPool pool(2);
  const PolygonSet a = data::polygon_field(321, 60, 100.0, 8);
  const PolygonSet b = data::polygon_field(322, 60, 100.0, 8);
  MultisetOptions o;
  o.slabs = 6;
  o.assign = MultisetAssign::kSubjectOwner;
  Alg2Stats st;
  multiset_clip(a, b, BoolOp::kIntersection, pool, o, &st);
  EXPECT_EQ(st.duplicates_removed, 0);
}

TEST(Multiset, AssignModeNames) {
  EXPECT_STREQ(to_string(MultisetAssign::kAuto), "auto");
  EXPECT_STREQ(to_string(MultisetAssign::kSubjectOwner), "subject-owner");
  EXPECT_STREQ(to_string(MultisetAssign::kReplicate), "replicate");
  EXPECT_STREQ(to_string(MultisetAssign::kBlockClosure), "block-closure");
}

TEST(Multiset, DisjointLayersIntersectEmpty) {
  par::ThreadPool pool(2);
  const PolygonSet a = data::polygon_field(1, 16, 50.0, 6);
  PolygonSet b = data::polygon_field(2, 16, 50.0, 6);
  b = geom::transformed(b, 1.0, {1000.0, 1000.0});
  EXPECT_TRUE(
      multiset_clip(a, b, BoolOp::kIntersection, pool).empty());
  const double uni =
      geom::signed_area(multiset_clip(a, b, BoolOp::kUnion, pool));
  EXPECT_TRUE(test::areas_match(
      uni, geom::even_odd_area(a) + geom::even_odd_area(b), 1e-5));
}

TEST(Multiset, StatsFilled) {
  par::ThreadPool pool(4);
  const PolygonSet a = data::polygon_field(11, 30, 60.0, 8);
  const PolygonSet b = data::polygon_field(12, 30, 60.0, 8);
  MultisetOptions o;
  o.slabs = 4;
  Alg2Stats st;
  multiset_clip(a, b, BoolOp::kIntersection, pool, o, &st);
  EXPECT_GE(st.slabs.size(), 1u);
  EXPECT_LE(st.slabs.size(), 4u);
  EXPECT_GE(st.phases.clip, 0.0);
  EXPECT_GE(st.load_imbalance(), 1.0);
  // Clean run under default fault isolation: every slab healthy.
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
  EXPECT_TRUE(multiset_clip({}, {}, BoolOp::kUnion, pool).empty());
  const PolygonSet a = data::polygon_field(3, 5, 20.0, 6);
  EXPECT_TRUE(test::areas_match(
      geom::signed_area(multiset_clip(a, {}, BoolOp::kUnion, pool)),
      geom::even_odd_area(a), 1e-5));
}

TEST(Multiset, EmptyInputResetsReusedStats) {
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
  EXPECT_TRUE(multiset_clip({}, {}, BoolOp::kUnion, pool, {}, &st).empty());
  EXPECT_TRUE(st.slabs.empty());
  EXPECT_TRUE(st.workers.empty());
  EXPECT_TRUE(st.degradation.empty());
  EXPECT_FALSE(st.partial.partial);
  EXPECT_TRUE(st.partial.missing.empty());
  EXPECT_EQ(st.output_contours, 0);
  EXPECT_EQ(st.duplicates_removed, 0);
  EXPECT_EQ(st.worst_rung(), Rung::kHealthy);
}

}  // namespace
}  // namespace psclip::mt
