// Property test for the merge-phase weld: random beam tilings of random
// regions, welded along every scanline in one phase, must reproduce the
// tiled area exactly and, with the cut vertices dropped, the sequential
// clipper's rings.

#include <gtest/gtest.h>

#include <random>

#include "core/beam_sweep.hpp"
#include "core/merge.hpp"
#include "core/scanbeam.hpp"
#include "geom/area_oracle.hpp"
#include "seq/vatti.hpp"
#include "test_support.hpp"

namespace psclip::core {
namespace {

using geom::BoolOp;
using geom::PolygonSet;

struct WCase {
  std::uint64_t seed;
  int n1, n2;
  bool sx;
  int op_index;
};

class WeldProperty : public ::testing::TestWithParam<WCase> {};

TEST_P(WeldProperty, WeldPreservesTiledAreaAndRegion) {
  const WCase c = GetParam();
  const BoolOp op = geom::kAllOps[c.op_index];
  const PolygonSet a =
      test::random_polygon(c.seed * 2 + 1, c.n1, 0, 0, 10, c.sx);
  const PolygonSet b =
      test::random_polygon(c.seed * 2 + 2, c.n2, 1, -1, 8, false);

  par::ThreadPool pool(2);
  const test::Partitioned table = test::partition(pool, a, b);
  const seq::BoundTable& bt = table.bt;
  const ScanbeamPartition& part = table.part;

  WeldArena arena(part.ys);
  std::vector<geom::Contour> rings;
  double tiled = 0.0;
  for (std::size_t beam = 0; beam < part.num_beams(); ++beam) {
    const auto lo = static_cast<std::size_t>(part.offsets[beam]);
    const auto hi = static_cast<std::size_t>(part.offsets[beam + 1]);
    const BeamResult br = process_beam(
        bt, std::span<const std::int32_t>(part.edge_ids).subspan(lo, hi - lo),
        part.ys[beam], part.ys[beam + 1], op);
    for (const auto& r : br.rings) {
      tiled += geom::signed_area(r);
      arena.add_ring(r);
      rings.push_back(r);
    }
  }
  arena.weld_parallel(pool);

  const double want = geom::boolean_area_oracle(a, b, op);
  EXPECT_TRUE(test::areas_match(tiled, want)) << "tiling broken";
  // Extraction (cut vertices kept) must conserve area exactly.
  EXPECT_TRUE(
      test::areas_match(geom::signed_area(arena.extract()), tiled, 1e-9));
  // Nothing left unwelded.
  EXPECT_TRUE(arena.debug_unwelded().empty());
  // The merge entry, with the cut rule, gives vatti_clip's rings.
  const LineVertices on_lines = vertices_on_lines(bt, part.ys);
  const PolygonSet welded = weld_seams(pool, rings, part.ys, &on_lines);
  EXPECT_TRUE(test::areas_match(geom::signed_area(welded), want))
      << "weld area=" << geom::signed_area(welded);
  EXPECT_TRUE(test::normalized_rings(welded) ==
              test::normalized_rings(seq::vatti_clip(a, b, op)));
}

std::vector<WCase> make_cases() {
  std::vector<WCase> cases;
  std::uint64_t seed = 42000;
  for (int rep = 0; rep < 16; ++rep)
    cases.push_back(
        {seed++, 6 + rep * 3, 4 + rep * 2, rep % 4 == 0, rep % 4});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, WeldProperty,
                         ::testing::ValuesIn(make_cases()));

}  // namespace
}  // namespace psclip::core
