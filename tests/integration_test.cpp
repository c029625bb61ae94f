// End-to-end integration: datasets -> both parallel algorithms -> areas
// cross-checked against the sequential clipper and the oracle, plus the
// WKT/SVG output pipeline the examples use.

#include <gtest/gtest.h>

#include "core/algorithm1.hpp"
#include "data/gis_sim.hpp"
#include "data/synthetic.hpp"
#include "geom/area_oracle.hpp"
#include "geom/svg.hpp"
#include "geom/wkt.hpp"
#include "mt/algorithm2.hpp"
#include "seq/vatti.hpp"
#include "test_support.hpp"

namespace psclip {
namespace {

using geom::BoolOp;
using geom::PolygonSet;

TEST(Integration, SyntheticPairThroughAllThreeClippers) {
  par::ThreadPool pool(4);
  const data::SyntheticPair pair = data::synthetic_pair(3, 200);
  for (const BoolOp op : geom::kAllOps) {
    const double seq_area =
        geom::signed_area(seq::vatti_clip(pair.subject, pair.clip, op));
    const double a1 = geom::signed_area(
        core::scanbeam_clip(pair.subject, pair.clip, op, pool));
    mt::Alg2Options o;
    o.slabs = 4;
    const double a2 = geom::signed_area(
        mt::slab_clip(pair.subject, pair.clip, op, pool, o));
    EXPECT_TRUE(test::areas_match(a1, seq_area, 1e-5)) << geom::to_string(op);
    EXPECT_TRUE(test::areas_match(a2, seq_area, 1e-5)) << geom::to_string(op);
  }
}

TEST(Integration, GisLayersIntersectConsistently) {
  par::ThreadPool pool(4);
  const PolygonSet d3 = data::make_dataset(3, 0.002);
  const PolygonSet d4 = data::make_dataset(4, 0.002);
  seq::VattiStats st;
  const double seq_area = geom::signed_area(
      seq::vatti_clip(d3, d4, BoolOp::kIntersection, &st));
  EXPECT_GT(seq_area, 0.0);
  EXPECT_GT(st.intersections, 0);

  mt::Alg2Options mo;
  mo.slabs = 4;
  const double par_area = geom::signed_area(
      mt::slab_clip(d3, d4, BoolOp::kIntersection, pool, mo));
  EXPECT_TRUE(test::areas_match(par_area, seq_area, 1e-5))
      << " par=" << par_area << " seq=" << seq_area;
}

TEST(Integration, UnionOfGisLayersConsistent) {
  par::ThreadPool pool(4);
  const PolygonSet d1 = data::make_dataset(1, 0.002);
  const PolygonSet d2 = data::make_dataset(2, 0.01);
  const double seq_area =
      geom::signed_area(seq::vatti_clip(d1, d2, BoolOp::kUnion));
  mt::Alg2Options mo;
  mo.slabs = 3;
  const double par_area =
      geom::signed_area(mt::slab_clip(d1, d2, BoolOp::kUnion, pool, mo));
  EXPECT_TRUE(test::areas_match(par_area, seq_area, 1e-5));
}

TEST(Integration, WktRoundTripThroughClipper) {
  const PolygonSet a = test::random_polygon(1001, 12, 0, 0, 10);
  const PolygonSet b = test::random_polygon(1002, 10, 2, 1, 8);
  const auto a2 = geom::from_wkt(geom::to_wkt(a));
  const auto b2 = geom::from_wkt(geom::to_wkt(b));
  ASSERT_TRUE(a2 && b2);
  const double direct = geom::signed_area(
      seq::vatti_clip(a, b, BoolOp::kIntersection));
  const double roundtrip = geom::signed_area(
      seq::vatti_clip(*a2, *b2, BoolOp::kIntersection));
  EXPECT_DOUBLE_EQ(direct, roundtrip);
}

TEST(Integration, SvgRendersClipResult) {
  const PolygonSet a = test::random_polygon(2001, 16, 0, 0, 10);
  const PolygonSet b = test::random_polygon(2002, 12, 1, 1, 8);
  const PolygonSet r = seq::vatti_clip(a, b, BoolOp::kIntersection);
  geom::SvgWriter svg;
  svg.add_layer(a, "#8da0cb", "#36405a");
  svg.add_layer(b, "#fc8d62", "#7a3f27");
  svg.add_layer(r, "#66c2a5", "#2a5446", 0.9);
  const std::string doc = svg.str();
  EXPECT_GT(doc.size(), 200u);
  EXPECT_NE(doc.find("evenodd"), std::string::npos);
}

TEST(Integration, Algorithm1StatsConsistentWithVatti) {
  par::ThreadPool pool(4);
  const data::SyntheticPair pair = data::synthetic_pair(9, 120);
  core::Alg1Stats a1;
  core::scanbeam_clip(pair.subject, pair.clip, BoolOp::kIntersection, pool,
                      &a1);
  seq::VattiStats vs;
  seq::vatti_clip(pair.subject, pair.clip, BoolOp::kIntersection, &vs);
  EXPECT_EQ(a1.edges, vs.edges);
  EXPECT_EQ(a1.intersections, vs.intersections);  // same k by Lemma 4
  EXPECT_EQ(a1.scanbeams, vs.scanbeams);
}

}  // namespace
}  // namespace psclip
