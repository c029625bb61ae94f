// Exactness and determinism contract for Algorithm 2's slab cut.
//
// slab_clip prepares every contour once into one shared bound table —
// byte for byte the table seq::vatti_clip builds — cuts the table's bounds
// at the slab lines and sweeps each slab's window of it
// (seq::vatti_sweep_window). Nothing is rectangle-clipped or re-prepared,
// so the contract is tight:
//
//   * one slab is seq::vatti_clip: the same contours in the same order
//     with the same bits (and the golden digest table pins both, at 1, 6
//     and 16 slabs — see tests/golden_digests.hpp);
//   * more slabs sweep exactly Vatti's edges and cut them only at the slab
//     lines, so the area stays within 1e-12 (relative) of Vatti's, on the
//     216-case corpus, on the 24k-edge synthetic pair and on the Table III
//     layers; once the merge welds the seams the output is Vatti's ring
//     set (the SeamFree oracle in golden_digest_test, and the two-set
//     lane at the bottom of this file);
//   * the output bytes depend on the slab count only, never on the pool.

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "data/gis_sim.hpp"
#include "data/synthetic.hpp"
#include "fuzz_cases.hpp"
#include "geom/perturb.hpp"
#include "geom/polygon.hpp"
#include "mt/algorithm2.hpp"
#include "parallel/thread_pool.hpp"
#include "seq/vatti.hpp"
#include "test_support.hpp"

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

PolygonSet slab(const PolygonSet& a, const PolygonSet& b, BoolOp op,
                par::ThreadPool& pool, unsigned slabs) {
  mt::Alg2Options o;
  o.slabs = slabs;
  mt::Alg2Stats st;
  PolygonSet out = mt::slab_clip(a, b, op, pool, o, &st);
  // Every slab must stay on the healthy rung — a fallback to the
  // whole-input rung would make the comparisons below vacuous.
  for (const auto& rep : st.degradation)
    EXPECT_EQ(rep.rung, mt::Rung::kHealthy) << rep.message;
  return out;
}

/// One slab is byte-identical to vatti_clip; `slab_counts` more slabs stay
/// within 1e-12 of its area.
void check_exact(const PolygonSet& a, const PolygonSet& b, BoolOp op,
                 par::ThreadPool& pool,
                 std::initializer_list<unsigned> slab_counts,
                 const std::string& what) {
  const PolygonSet want = seq::vatti_clip(a, b, op);
  expect_identical(slab(a, b, op, pool, 1), want, what + " slabs=1");
  const double want_area = geom::signed_area(want);
  for (const unsigned slabs : slab_counts) {
    const double got = geom::signed_area(slab(a, b, op, pool, slabs));
    EXPECT_TRUE(test::areas_match(got, want_area, 1e-12))
        << what << " slabs=" << slabs << " got=" << got
        << " vatti=" << want_area;
  }
}

class FusedPartitionFuzz : public ::testing::TestWithParam<FuzzCase> {};

// Reference: seq::vatti_clip (the test keeps its established name).
TEST_P(FusedPartitionFuzz, FusedMatchesIndexedBitForBit) {
  const FuzzCase c = GetParam();
  SCOPED_TRACE("repro: " + c.repro());
  const Inputs in = make_inputs(c);
  static par::ThreadPool pool(4);

  for (const BoolOp op : geom::kAllOps)
    check_exact(in.a, in.b, op, pool, {4u, 16u, 64u},
                std::string("op=") + geom::to_string(op));
}

INSTANTIATE_TEST_SUITE_P(Corpus, FusedPartitionFuzz,
                         ::testing::ValuesIn(fuzz::make_cases()));

// ---------------------------------------------------------------------------
// Boundary degeneracies
// ---------------------------------------------------------------------------

// A stack of touching rectangles: shared horizontal edges, shared
// ordinates, and slab lines landing between the perturbed copies of one
// ordinate. Exactly shared edges violate general position (Vatti itself
// misreads them), so only one slab is held to Vatti's bytes on the raw
// stack; the jittered stack (the paper's §III-C preprocessing) is held to
// its area at every slab count.
TEST(FusedPartitionDegenerate, TouchingRectangleStack) {
  PolygonSet a, b;
  for (int i = 0; i < 8; ++i)
    a.add(geom::make_rect(0.0, i * 1.0, 10.0, (i + 1) * 1.0));
  b.add(geom::make_rect(-1.0, 0.5, 11.0, 7.5));
  par::ThreadPool pool(4);
  for (const BoolOp op : geom::kAllOps) {
    const std::string what =
        "rect-stack op=" + std::string(geom::to_string(op));
    expect_identical(slab(a, b, op, pool, 1), seq::vatti_clip(a, b, op),
                     what + " raw slabs=1");
    PolygonSet ja = a, jb = b;
    geom::jitter(ja, 1e-6, 11);
    geom::jitter(jb, 1e-6, 12);
    check_exact(ja, jb, op, pool, {4u, 8u, 64u}, what + " jittered");
  }
}

// Zero-height contours (all vertices on one ordinate) sitting among normal
// ones: preparation collapses them to nothing, on every slab count.
TEST(FusedPartitionDegenerate, ZeroHeightContours) {
  PolygonSet a = data::polygon_field(301, 12, 40.0, 8);
  a.add({{0.0, 13.0}, {5.0, 13.0}, {9.0, 13.0}});   // zero-height triangle
  a.add({{20.0, 21.0}, {26.0, 21.0}, {23.0, 21.0}});
  PolygonSet b = data::polygon_field(302, 12, 40.0, 7);
  par::ThreadPool pool(4);
  for (const BoolOp op : {BoolOp::kUnion, BoolOp::kIntersection})
    check_exact(a, b, op, pool, {4u, 8u},
                "zero-height op=" + std::string(geom::to_string(op)));
}

// One contour spanning every slab — seeds at every line — against a field
// of small contours that each fall inside one slab.
TEST(FusedPartitionDegenerate, ContourSpanningAllSlabs) {
  PolygonSet a = data::polygon_field(303, 16, 60.0, 9);
  a.add(geom::make_rect(-5.0, -5.0, 65.0, 65.0));  // spans everything
  PolygonSet b = data::polygon_field(304, 16, 60.0, 8);
  par::ThreadPool pool(4);
  check_exact(a, b, BoolOp::kXor, pool, {4u, 8u, 16u}, "spanning");
}

// ---------------------------------------------------------------------------
// Large inputs: the paper's workloads
// ---------------------------------------------------------------------------

// Fig. 9's dataset II pair: one 24k-edge contour per side, so every slab
// line cuts hundreds of bound edges.
TEST(SlabCut, SyntheticPair24kMatchesVattiArea) {
  const auto pair = data::synthetic_pair(7919, 24000);
  par::ThreadPool pool(4);
  check_exact(pair.subject, pair.clip, BoolOp::kIntersection, pool,
              {4u, 16u, 64u}, "pair_24k");
}

// Table III layers 3 and 4 at scale 0.01: thousands of small polygons.
TEST(SlabCut, Table3LayersMatchVattiArea) {
  const PolygonSet a = data::make_dataset(3, 0.01);
  const PolygonSet b = data::make_dataset(4, 0.01);
  par::ThreadPool pool(4);
  for (const BoolOp op : geom::kAllOps)
    check_exact(a, b, op, pool, {4u, 16u, 64u},
                std::string("table3 op=") + geom::to_string(op));
}

// The slab lines depend on the slab count only, and every slab writes its
// own output slot: the bytes cannot depend on the pool.
TEST(SlabCut, BytesEqualAcrossPools) {
  const auto pair = data::synthetic_pair(31, 3000);
  par::ThreadPool pool4(4), pool2(2), pool1(1);
  for (const BoolOp op : geom::kAllOps) {
    const PolygonSet want = slab(pair.subject, pair.clip, op, pool4, 16);
    expect_identical(slab(pair.subject, pair.clip, op, pool2, 16), want,
                     std::string("pool(2) op=") + geom::to_string(op));
    expect_identical(slab(pair.subject, pair.clip, op, pool1, 16), want,
                     std::string("pool(1) op=") + geom::to_string(op));
  }
}

// ---------------------------------------------------------------------------
// Two sets of polygons: the fused setup against a materializing clipper
// ---------------------------------------------------------------------------

// slab_clip's setup is fused: every contour is prepared once and the slabs
// sweep windows of one table assembled from the prepared fragments.
// vatti_clip materializes its own table from the contours. At one slab
// the two are the same bytes; at four slabs the welded output is the same
// rings. Two polygon-field layers, every operator.
TEST(FusedMultiset, FusedMatchesMaterializingBitForBit) {
  const PolygonSet a = data::polygon_field(601, 30, 100.0, 9);
  const PolygonSet b = data::polygon_field(602, 30, 100.0, 8);
  par::ThreadPool pool(4);
  for (const BoolOp op : geom::kAllOps) {
    const std::string what = std::string("layers op=") + geom::to_string(op);
    const PolygonSet want = seq::vatti_clip(a, b, op);
    expect_identical(slab(a, b, op, pool, 1), want, what);
    const PolygonSet got = slab(a, b, op, pool, 4);
    EXPECT_EQ(got.num_contours(), want.num_contours()) << what;
    EXPECT_TRUE(test::normalized_rings(got) == test::normalized_rings(want))
        << what;
  }
}

// Corpus lane for the same contract: pair inputs are valid two-set inputs
// too (each "set" is whatever contours the generator produced). Four
// slabs, welded, against vatti_clip's rings.
class FusedMultisetFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FusedMultisetFuzz, FusedMatchesMaterializing) {
  const FuzzCase c = GetParam();
  SCOPED_TRACE("repro: " + c.repro());
  const Inputs in = make_inputs(c);
  static par::ThreadPool pool(4);
  const PolygonSet want = seq::vatti_clip(in.a, in.b, c.op);
  const PolygonSet got = slab(in.a, in.b, c.op, pool, 4);
  EXPECT_EQ(got.num_contours(), want.num_contours());
  EXPECT_TRUE(test::normalized_rings(got) == test::normalized_rings(want));
}

// A 36-case slice under each case's own operator; the golden digest test
// runs the whole corpus under every operator at 6 and 16 slabs.
INSTANTIATE_TEST_SUITE_P(CorpusSlice, FusedMultisetFuzz,
                         ::testing::ValuesIn([] {
                           auto all = fuzz::make_cases();
                           std::vector<FuzzCase> slice;
                           for (std::size_t i = 0; i < all.size(); i += 6)
                             slice.push_back(all[i]);
                           return slice;
                         }()));

// The output-sensitivity claim itself, in deterministic units: the edges
// the cut reads — seeds plus the binary-search probes that found them —
// stay within 1.3x of the edges a one-slab run reads (the table once),
// where the paper's per-slab rectangle clipping read the whole input per
// slab. Every edge is still swept exactly once outside the seeds.
TEST(FusedPartition, TouchedEdgesAreOutputSensitive) {
  const PolygonSet a = data::polygon_field(701, 60, 120.0, 10);
  const PolygonSet b = data::polygon_field(702, 60, 120.0, 9);
  par::ThreadPool pool(4);
  seq::VattiStats whole;
  (void)seq::vatti_clip(a, b, BoolOp::kUnion, &whole);
  for (const unsigned slabs : {1u, 4u, 16u, 64u}) {
    mt::Alg2Options o;
    o.slabs = slabs;
    mt::Alg2Stats st;
    (void)mt::slab_clip(a, b, BoolOp::kUnion, pool, o, &st);
    std::int64_t touched = 0, swept = 0, seeds = 0;
    for (const auto& s : st.slabs) {
      touched += s.touched_edges;
      swept += s.input_edges;
      seeds += s.boundary_edges;
    }
    EXPECT_EQ(swept, whole.edges + seeds) << "slabs=" << slabs;
    EXPECT_GE(touched, seeds) << "slabs=" << slabs;
    if (slabs == 1) EXPECT_EQ(touched, 0);
    // Seeds grow with the lines each contour spans, so the 1.3x bound
    // holds while slabs stay taller than this small field's contours; at
    // 64 slabs the cut still reads far less than one table per slab.
    if (slabs <= 16)
      EXPECT_LE(static_cast<double>(touched),
                1.3 * static_cast<double>(whole.edges))
          << "slabs=" << slabs;
    EXPECT_LT(touched, static_cast<std::int64_t>(slabs) * whole.edges / 8)
        << "slabs=" << slabs;
  }
}

}  // namespace
}  // namespace psclip
