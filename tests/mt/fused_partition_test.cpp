// Byte-identity contract for the fused slab partition.
//
// Alg2Partition::kFused (the default) assembles each slab's Vatti bound
// table directly from globally prepared contour fragments and slices the
// scanbeam schedule from one shared merged y-list, instead of
// materializing rectangle-clipped slab polygons and re-deriving the sweep
// structures per slab. That is only a legal optimization if it is
// *invisible*: against the materializing kBroadcast path it must
// produce the same contours in the same order with the same bits — not
// just the same area — on every corpus case, for both sweep kernels, at
// one slab and many. The multiset clipper's fused fragment concatenation
// carries the same contract against its copy-then-rederive baseline.
//
// The corpus is the shared 216-case fuzz generator (tests/fuzz_cases.hpp);
// on top of it, handcrafted boundary-degeneracy cases exercise exactly the
// geometry the fused path special-cases: rectangle-clip pieces with edges
// stitched along slab boundary lines (the collinear-run coalescing),
// zero-height contours sitting on a boundary, and contours spanning every
// slab.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "fuzz_cases.hpp"
#include "geom/polygon.hpp"
#include "mt/algorithm2.hpp"
#include "mt/multiset.hpp"
#include "parallel/thread_pool.hpp"

namespace psclip {
namespace {

using fuzz::FuzzCase;
using fuzz::Inputs;
using fuzz::make_inputs;
using geom::BoolOp;
using geom::PolygonSet;

void expect_identical(const PolygonSet& got, const PolygonSet& want,
                      const std::string& what) {
  ASSERT_EQ(got.num_contours(), want.num_contours()) << what;
  for (std::size_t i = 0; i < got.contours.size(); ++i) {
    ASSERT_EQ(got.contours[i].pts.size(), want.contours[i].pts.size())
        << what << " contour " << i;
    EXPECT_EQ(got.contours[i].hole, want.contours[i].hole)
        << what << " contour " << i;
    for (std::size_t j = 0; j < got.contours[i].pts.size(); ++j) {
      ASSERT_EQ(got.contours[i][j].x, want.contours[i][j].x)
          << what << " contour " << i << " vertex " << j;
      ASSERT_EQ(got.contours[i][j].y, want.contours[i][j].y)
          << what << " contour " << i << " vertex " << j;
    }
  }
}

/// fused == broadcast, bit for bit, at the given slab count and kernel. One slab exercises the "whole input is one slab" degenerate
/// decomposition (everything is well-contained, the shared-schedule slice
/// is the whole schedule); many slabs exercise straddling-piece prep.
void check_slab_identity(const PolygonSet& a, const PolygonSet& b, BoolOp op,
                         par::ThreadPool& pool, unsigned slabs,
                         seq::SweepKernel kernel, const std::string& what) {
  mt::Alg2Options of;
  of.slabs = slabs;
  of.partition = mt::Alg2Partition::kFused;
  of.rect_method = seq::RectClipMethod::kVatti;  // corpus has self-crossings
  of.sweep_kernel = kernel;
  mt::Alg2Options ob = of;
  ob.partition = mt::Alg2Partition::kBroadcast;

  mt::Alg2Stats sf;
  const PolygonSet rf = mt::slab_clip(a, b, op, pool, of, &sf);
  const PolygonSet rb = mt::slab_clip(a, b, op, pool, ob);
  expect_identical(rf, rb, what + " fused-vs-broadcast");

  // The fused run must stay on the healthy rung — falling back to the
  // materializing ladder would make this test vacuous.
  for (const auto& rep : sf.degradation)
    ASSERT_EQ(rep.rung, mt::Rung::kHealthy) << what << ": " << rep.message;
}

class FusedPartitionFuzz : public ::testing::TestWithParam<FuzzCase> {};

// Reference: the broadcast partition (the test keeps its established name).
TEST_P(FusedPartitionFuzz, FusedMatchesIndexedBitForBit) {
  const FuzzCase c = GetParam();
  SCOPED_TRACE("repro: " + c.repro());
  const Inputs in = make_inputs(c);
  static par::ThreadPool pool(4);

  for (const seq::SweepKernel kernel :
       {seq::SweepKernel::kTuned, seq::SweepKernel::kReference}) {
    const std::string kn =
        kernel == seq::SweepKernel::kTuned ? "tuned" : "reference";
    check_slab_identity(in.a, in.b, c.op, pool, /*slabs=*/1, kernel,
                        kn + " slabs=1");
    check_slab_identity(in.a, in.b, c.op, pool, /*slabs=*/6, kernel,
                        kn + " slabs=6");
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, FusedPartitionFuzz,
                         ::testing::ValuesIn(fuzz::make_cases()));

// ---------------------------------------------------------------------------
// Boundary degeneracies
// ---------------------------------------------------------------------------

// A stack of touching rectangles: shared horizontal edges, shared
// ordinates, and slab boundaries that land exactly midway between rows —
// every rectangle-clip piece gets edges stitched along boundary lines,
// the geometry the collinear-run coalescing exists for.
TEST(FusedPartitionDegenerate, TouchingRectangleStack) {
  PolygonSet a, b;
  for (int i = 0; i < 8; ++i)
    a.add(geom::make_rect(0.0, i * 1.0, 10.0, (i + 1) * 1.0));
  b.add(geom::make_rect(-1.0, 0.5, 11.0, 7.5));
  par::ThreadPool pool(4);
  for (const BoolOp op : geom::kAllOps)
    for (const unsigned slabs : {1u, 4u, 8u})
      check_slab_identity(a, b, op, pool, slabs, seq::SweepKernel::kTuned,
                          "rect-stack op=" + std::string(geom::to_string(op)) +
                              " slabs=" + std::to_string(slabs));
}

// Zero-height contours (all vertices on one ordinate) sitting among normal
// ones: preparation collapses them to nothing on every path; the fused
// fragment append must agree with the materializing prep about that.
TEST(FusedPartitionDegenerate, ZeroHeightContours) {
  PolygonSet a = data::polygon_field(301, 12, 40.0, 8);
  a.add({{0.0, 13.0}, {5.0, 13.0}, {9.0, 13.0}});   // zero-height triangle
  a.add({{20.0, 21.0}, {26.0, 21.0}, {23.0, 21.0}});
  PolygonSet b = data::polygon_field(302, 12, 40.0, 7);
  par::ThreadPool pool(4);
  for (const BoolOp op : {BoolOp::kUnion, BoolOp::kIntersection})
    for (const unsigned slabs : {1u, 4u, 8u})
      check_slab_identity(a, b, op, pool, slabs, seq::SweepKernel::kTuned,
                          "zero-height slabs=" + std::to_string(slabs));
}

// One contour spanning every slab (the index degenerates to broadcast for
// it, and under fused it is a straddler in every slab) against a field of
// small well-contained contours riding the shared schedule.
TEST(FusedPartitionDegenerate, ContourSpanningAllSlabs) {
  PolygonSet a = data::polygon_field(303, 16, 60.0, 9);
  a.add(geom::make_rect(-5.0, -5.0, 65.0, 65.0));  // spans everything
  PolygonSet b = data::polygon_field(304, 16, 60.0, 8);
  par::ThreadPool pool(4);
  for (const seq::SweepKernel kernel :
       {seq::SweepKernel::kTuned, seq::SweepKernel::kReference})
    for (const unsigned slabs : {4u, 8u, 16u})
      check_slab_identity(a, b, BoolOp::kXor, pool, slabs, kernel,
                          "spanning slabs=" + std::to_string(slabs));
}

// ---------------------------------------------------------------------------
// Multiset fused fragment concatenation
// ---------------------------------------------------------------------------

TEST(FusedMultiset, FusedMatchesMaterializingBitForBit) {
  const PolygonSet a = data::polygon_field(601, 30, 100.0, 9);
  const PolygonSet b = data::polygon_field(602, 30, 100.0, 8);
  par::ThreadPool pool(4);
  for (const BoolOp op : geom::kAllOps) {
    for (const seq::SweepKernel kernel :
         {seq::SweepKernel::kTuned, seq::SweepKernel::kReference}) {
      mt::MultisetOptions of;
      of.slabs = 4;
      of.fused = true;
      of.sweep_kernel = kernel;
      mt::MultisetOptions om = of;
      om.fused = false;
      mt::Alg2Stats sf;
      const PolygonSet rf = mt::multiset_clip(a, b, op, pool, of, &sf);
      const PolygonSet rm = mt::multiset_clip(a, b, op, pool, om);
      expect_identical(rf, rm,
                       std::string("multiset op=") + geom::to_string(op));
      for (const auto& rep : sf.degradation)
        ASSERT_EQ(rep.rung, mt::Rung::kHealthy) << rep.message;
    }
  }
}

// Corpus lane for the multiset fused path: pair inputs are valid two-set
// inputs too (each "set" is whatever contours the generator produced).
class FusedMultisetFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FusedMultisetFuzz, FusedMatchesMaterializing) {
  const FuzzCase c = GetParam();
  SCOPED_TRACE("repro: " + c.repro());
  const Inputs in = make_inputs(c);
  static par::ThreadPool pool(4);
  mt::MultisetOptions of;
  of.slabs = 4;
  of.fused = true;
  mt::MultisetOptions om = of;
  om.fused = false;
  const PolygonSet rf = mt::multiset_clip(in.a, in.b, c.op, pool, of);
  const PolygonSet rm = mt::multiset_clip(in.a, in.b, c.op, pool, om);
  expect_identical(rf, rm, "multiset corpus");
}

// A 36-case slice keeps the multiset lane fast; the full 216 cases run
// through the slab_clip lane above, which covers the shared prep chain.
INSTANTIATE_TEST_SUITE_P(CorpusSlice, FusedMultisetFuzz,
                         ::testing::ValuesIn([] {
                           auto all = fuzz::make_cases();
                           std::vector<FuzzCase> slice;
                           for (std::size_t i = 0; i < all.size(); i += 6)
                             slice.push_back(all[i]);
                           return slice;
                         }()));

// The output-sensitivity claim itself, in deterministic units: per-slab
// touched edges under fused must not exceed the broadcast partition's count
// (fused copies the prepared bound edges of the contours overlapping the
// slab; broadcast re-reads every input vertex per slab — and the bound
// table never has more edges than vertices), and must be strictly lower
// once the field is spread over several slabs.
TEST(FusedPartition, TouchedEdgesAreOutputSensitive) {
  const PolygonSet a = data::polygon_field(701, 60, 120.0, 10);
  const PolygonSet b = data::polygon_field(702, 60, 120.0, 9);
  par::ThreadPool pool(4);
  for (const unsigned slabs : {4u, 8u}) {
    mt::Alg2Options of, ob;
    of.slabs = ob.slabs = slabs;
    of.partition = mt::Alg2Partition::kFused;
    ob.partition = mt::Alg2Partition::kBroadcast;
    mt::Alg2Stats sf, sb;
    (void)mt::slab_clip(a, b, BoolOp::kUnion, pool, of, &sf);
    (void)mt::slab_clip(a, b, BoolOp::kUnion, pool, ob, &sb);
    std::int64_t tf = 0, tb = 0;
    for (const auto& s : sf.slabs) tf += s.touched_edges;
    for (const auto& s : sb.slabs) tb += s.touched_edges;
    EXPECT_EQ(tb, static_cast<std::int64_t>(
                      (a.num_vertices() + b.num_vertices()) * sb.slabs.size()))
        << "slabs=" << slabs;
    EXPECT_LT(tf, tb) << "slabs=" << slabs;
    // The fused stats carry the new counters; bound building must have
    // been charged somewhere.
    std::int64_t build = 0;
    for (const auto& s : sf.slabs) build += s.bound_build_ns;
    EXPECT_GT(build, 0) << "slabs=" << slabs;
  }
}

}  // namespace
}  // namespace psclip
