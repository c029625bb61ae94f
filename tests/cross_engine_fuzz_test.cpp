// Seeded cross-engine differential fuzz harness.
//
// The corpus comes from tests/fuzz_cases.hpp (216 deterministic cases:
// smooth blobs, jagged stars, convex rings, self-intersecting rings, star
// polygrams, multi-contour fields, with degenerate variants restored to
// general position via geom::jitter, the paper's §III-C preprocessing).
// Every case is pushed through every clipping engine the library has:
//
//   * seq::vatti            — the GPC-equivalent scanline substrate,
//   * seq::martinez         — an independent x-directed sweep,
//   * mt::slab_clip         — Algorithm 2 on the thread pool.
//
// Canonicalized outputs must agree: every engine's area against the
// trapezoid-sweep area oracle (which shares no code with any engine), and
// the parallel engine's output must be byte-identical across different
// pool sizes (scheduling invariance — sweep-line clippers
// silently diverging on degenerate input is exactly the failure mode
// Foster & Overfelt document).
//
// Seeds are FIXED: a failure prints its full case descriptor and can be
// replayed with  ctest -R CrossEngineFuzz  or
// ./tests/cross_engine_fuzz_test --gtest_filter='*/<case-index>'
// (see README "Cross-engine fuzz harness").

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fuzz_cases.hpp"
#include "geom/area_oracle.hpp"
#include "mt/algorithm2.hpp"
#include "seq/martinez.hpp"
#include "seq/vatti.hpp"
#include "test_support.hpp"

namespace psclip {
namespace {

using fuzz::FuzzCase;
using fuzz::Inputs;
using fuzz::make_inputs;
using geom::PolygonSet;

class CrossEngineFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(CrossEngineFuzz, EnginesAgree) {
  const FuzzCase c = GetParam();
  SCOPED_TRACE("repro: " + c.repro());
  const Inputs in = make_inputs(c);

  const double want = geom::boolean_area_oracle(in.a, in.b, c.op);

  // Sequential engines against the oracle.
  const double vat = geom::signed_area(seq::vatti_clip(in.a, in.b, c.op));
  EXPECT_TRUE(test::areas_match(vat, want, 1e-5))
      << "vatti=" << vat << " oracle=" << want;
  const double mar = geom::signed_area(seq::martinez_clip(in.a, in.b, c.op));
  EXPECT_TRUE(test::areas_match(mar, want, 1e-5))
      << "martinez=" << mar << " oracle=" << want;

  // Algorithm 2 on the thread pool, on three pool sizes but the same
  // decomposition: area against the oracle AND the same contours in the
  // same order with the same bits on every schedule.
  static par::ThreadPool pool4(4);
  static par::ThreadPool pool2(2);
  static par::ThreadPool pool1(1);
  mt::Alg2Options o;
  o.slabs = 6;  // fixed => identical slab lines on every pool
  const PolygonSet out4 = mt::slab_clip(in.a, in.b, c.op, pool4, o);
  const double a2 = geom::signed_area(out4);
  EXPECT_TRUE(test::areas_match(a2, want, 1e-5))
      << "slab_clip=" << a2 << " oracle=" << want;
  for (par::ThreadPool* pool : {&pool2, &pool1}) {
    const PolygonSet other = mt::slab_clip(in.a, in.b, c.op, *pool, o);
    ASSERT_EQ(out4.num_contours(), other.num_contours())
        << "slab_clip contour count depends on the pool (" << pool->size()
        << " threads)";
    for (std::size_t i = 0; i < out4.contours.size(); ++i) {
      const auto& ci = out4.contours[i];
      const auto& cj = other.contours[i];
      ASSERT_EQ(ci.pts.size(), cj.pts.size()) << "contour " << i;
      EXPECT_EQ(ci.hole, cj.hole) << "contour " << i;
      for (std::size_t j = 0; j < ci.pts.size(); ++j) {
        EXPECT_EQ(ci.pts[j].x, cj.pts[j].x)
            << "contour " << i << " vertex " << j;
        EXPECT_EQ(ci.pts[j].y, cj.pts[j].y)
            << "contour " << i << " vertex " << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeded, CrossEngineFuzz,
                         ::testing::ValuesIn(fuzz::make_cases()));

}  // namespace
}  // namespace psclip
