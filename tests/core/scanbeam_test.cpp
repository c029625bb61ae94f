#include "core/scanbeam.hpp"

#include <gtest/gtest.h>

#include <set>

#include "test_support.hpp"

namespace psclip::core {
namespace {

/// Every beam holds exactly the edges spanning it (brute force).
void expect_exact_beams(const test::Partitioned& p) {
  const auto& [bt, part] = p;
  for (std::size_t beam = 0; beam < part.num_beams(); ++beam) {
    const double yb = part.ys[beam], yt = part.ys[beam + 1];
    std::multiset<std::int32_t> got(
        part.edge_ids.begin() +
            static_cast<std::ptrdiff_t>(part.offsets[beam]),
        part.edge_ids.begin() +
            static_cast<std::ptrdiff_t>(part.offsets[beam + 1]));
    std::multiset<std::int32_t> want;
    for (std::size_t e = 0; e < bt.edges.size(); ++e)
      if (bt.edges[e].bot.y <= yb && bt.edges[e].top.y >= yt)
        want.insert(static_cast<std::int32_t>(e));
    EXPECT_EQ(got, want) << "beam " << beam;
  }
}

TEST(ScanbeamPartition, TriangleBasics) {
  par::ThreadPool pool(2);
  const auto [bt, part] =
      test::partition(pool, geom::make_polygon({{0, 0}, {4, 1}, {2, 5}}));
  EXPECT_EQ(part.ys.size(), 3u);  // three distinct vertex ordinates
  EXPECT_EQ(part.num_beams(), 2u);
  // Beam 0 ([y0,y1]) holds edges spanning it.
  EXPECT_EQ(part.offsets.size(), 3u);
  EXPECT_EQ(part.total_incidences(), 4);  // 2 edges in one beam, 2 in other
  EXPECT_EQ(part.k_prime(bt.num_edges()), 1);  // one edge split once
}

class PartitionRandom : public ::testing::TestWithParam<int> {};

// The segment tree's beams equal direct binning (every edge tested against
// every beam) on a subject/clip pair, the subject self-intersecting every
// third case.
TEST_P(PartitionRandom, SegtreeAndDirectAgree) {
  par::ThreadPool pool(4);
  const auto seed = static_cast<std::uint64_t>(GetParam());
  expect_exact_beams(test::partition(
      pool,
      test::random_polygon(seed * 2 + 1, 10 + GetParam() * 3, 0, 0, 10,
                           GetParam() % 3 == 0),
      test::random_polygon(seed * 2 + 2, 8 + GetParam() * 2, 1, 1, 8)));
}

TEST_P(PartitionRandom, EveryBeamContentIsExact) {
  par::ThreadPool pool(4);
  const auto seed = static_cast<std::uint64_t>(GetParam()) + 100;
  expect_exact_beams(test::partition(
      pool, test::random_polygon(seed, 12 + GetParam() * 2, 0, 0, 10)));
}

INSTANTIATE_TEST_SUITE_P(Random, PartitionRandom, ::testing::Range(0, 10));

TEST(ScanbeamPartition, KPrimeGrowsWithSpanningEdges) {
  par::ThreadPool pool(2);
  // A tall thin triangle next to a stack of small ones: the tall edges
  // span many beams, so k' > 0 and equals total incidences - edge count.
  geom::PolygonSet p = geom::make_polygon({{0, 0}, {1, 0.05}, {0.5, 100}});
  for (int i = 0; i < 8; ++i)
    p.add({{3.0, i * 10 + 1.0}, {4.0, i * 10 + 1.2}, {3.5, i * 10 + 5.0}});
  const auto [bt, part] = test::partition(pool, p);
  EXPECT_GT(part.k_prime(bt.num_edges()), 20);
  EXPECT_EQ(part.total_incidences(),
            part.k_prime(bt.num_edges()) +
                static_cast<std::int64_t>(bt.num_edges()));
}

TEST(ScanbeamPartition, EmptyInput) {
  par::ThreadPool pool(2);
  const auto [bt, part] = test::partition(pool, {});
  EXPECT_EQ(part.num_beams(), 0u);
  EXPECT_EQ(part.total_incidences(), 0);
}

}  // namespace
}  // namespace psclip::core
