#include "seq/bounds.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "geom/perturb.hpp"
#include "golden_digests.hpp"
#include "mt/algorithm2.hpp"
#include "parallel/thread_pool.hpp"
#include "seq/vatti.hpp"
#include "test_support.hpp"

namespace psclip::seq {
namespace {

using geom::Point;
using geom::PolygonSet;

/// The schedule's oracle: every edge endpoint's y, sorted, duplicates
/// removed.
std::vector<double> sorted_ys(const BoundTable& bt) {
  std::vector<double> ys;
  for (const auto& e : bt.edges) {
    ys.push_back(e.bot.y);
    ys.push_back(e.top.y);
  }
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
  return ys;
}

TEST(Bounds, TriangleHasOneMinimumTwoBounds) {
  const BoundTable bt =
      build_bounds(geom::make_polygon({{0, 0}, {4, 1}, {2, 5}}), {});
  ASSERT_EQ(bt.minima.size(), 1u);
  EXPECT_EQ(bt.minima[0].pt, (Point{0, 0}));
  EXPECT_EQ(bt.edges.size(), 3u);  // every edge is in exactly one bound
}

TEST(Bounds, EdgesAscendAndChainsLink) {
  const BoundTable bt =
      build_bounds(test::random_polygon(5, 24, 0, 0, 10), {});
  EXPECT_EQ(bt.edges.size(), 24u);
  for (const auto& e : bt.edges) {
    EXPECT_LT(e.bot.y, e.top.y);
    if (e.next >= 0) {
      // Chains are continuous: the next edge starts where this one ends.
      EXPECT_EQ(bt.edges[static_cast<std::size_t>(e.next)].bot, e.top);
    }
  }
}

TEST(Bounds, MinimaSortedByYThenX) {
  const BoundTable bt =
      build_bounds(test::random_polygon(9, 30, 0, 0, 10),
                   test::random_polygon(10, 20, 3, 2, 8));
  for (std::size_t i = 1; i < bt.minima.size(); ++i) {
    const auto& a = bt.minima[i - 1].pt;
    const auto& b = bt.minima[i].pt;
    EXPECT_TRUE(a.y < b.y || (a.y == b.y && a.x <= b.x));
  }
}

TEST(Bounds, LeftRightHeadsOrderedBySlope) {
  const BoundTable bt =
      build_bounds(test::random_polygon(11, 40, 0, 0, 10), {});
  for (const auto& lm : bt.minima) {
    const auto& l = bt.edges[static_cast<std::size_t>(lm.edge_left)];
    const auto& r = bt.edges[static_cast<std::size_t>(lm.edge_right)];
    EXPECT_EQ(l.bot, lm.pt);
    EXPECT_EQ(r.bot, lm.pt);
    EXPECT_LE(l.dxdy, r.dxdy);
  }
}

TEST(Bounds, ClipFlagDistinguishesInputs) {
  const BoundTable bt = build_bounds(test::random_polygon(2, 10, 0, 0, 5),
                                     test::random_polygon(3, 12, 1, 1, 5));
  std::size_t subject = 0, clip = 0;
  for (const auto& e : bt.edges) (e.is_clip ? clip : subject)++;
  EXPECT_EQ(subject, 10u);
  EXPECT_EQ(clip, 12u);
}

TEST(Bounds, EveryEdgeAppearsExactlyOnce) {
  // Total bound edges == total input vertices (each ring edge belongs to
  // exactly one ascending bound, descending ones reversed).
  for (int n : {6, 13, 27, 50}) {
    const auto p = test::random_polygon(static_cast<std::uint64_t>(n), n, 0,
                                        0, 10);
    EXPECT_EQ(build_bounds(p, {}).edges.size(), static_cast<std::size_t>(n));
  }
}

TEST(Bounds, MaximaTerminateChains) {
  const BoundTable bt =
      build_bounds(test::random_polygon(21, 36, 0, 0, 10), {});
  // Count chain ends (-1 next): equals count of bounds == 2 * minima.
  std::size_t ends = 0;
  for (const auto& e : bt.edges)
    if (e.next < 0) ++ends;
  EXPECT_EQ(ends, 2 * bt.minima.size());
}

TEST(Bounds, ScanbeamYsSortedDistinct) {
  const BoundTable bt = build_bounds(test::random_polygon(33, 25, 0, 0, 10),
                                     test::random_polygon(34, 25, 2, 1, 9));
  const auto ys = sorted_ys(bt);
  for (std::size_t i = 1; i < ys.size(); ++i) EXPECT_LT(ys[i - 1], ys[i]);
  // All edge endpoints are scanlines.
  for (const auto& e : bt.edges) {
    EXPECT_TRUE(std::binary_search(ys.begin(), ys.end(), e.bot.y));
    EXPECT_TRUE(std::binary_search(ys.begin(), ys.end(), e.top.y));
  }
}

// The sweep's schedule sorts only the minima ys and the edge tops (by
// radix sort from 160 values); the sorted oracle sorts all endpoints. The
// two builders must produce the *identical* vector (same length, same
// values).
TEST(Bounds, MergedScheduleEqualsSortUnique) {
  const struct {
    PolygonSet a, b;
  } cases[] = {
      {geom::make_polygon({{0, 0}, {4, 1}, {2, 5}}), {}},
      {test::random_polygon(33, 25, 0, 0, 10),
       test::random_polygon(34, 25, 2, 1, 9)},
      {test::random_polygon(55, 64, 0, 0, 10),
       test::random_polygon(56, 41, -2, 3, 12)},
      // Shared ordinates across inputs (duplicates across bounds).
      {geom::make_polygon({{0, 0}, {6, 0.5}, {3, 4}}),
       geom::make_polygon({{1, 0}, {7, 0.5}, {4, 4}})},
      // Long enough for the radix sort, with negative ordinates.
      {test::random_polygon(57, 3000, 0, 0, 10),
       test::random_polygon(58, 2500, 1, -1, 9)},
      {{}, {}},  // empty table
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const BoundTable bt = build_bounds(cases[i].a, cases[i].b);
    const std::vector<double> sorted = sorted_ys(bt);
    std::vector<double> merged;
    scanbeam_ys_merged_into(bt, merged);
    ASSERT_EQ(merged.size(), sorted.size());
    for (std::size_t j = 0; j < sorted.size(); ++j)
      EXPECT_EQ(merged[j], sorted[j]) << "y index " << j;
  }
}

// Reused buffers must be indistinguishable from fresh ones.
TEST(Bounds, MergedScheduleBufferReuse) {
  std::vector<double> ys{1.0, 2.0, 3.0, 4.0, 5.0};
  const BoundTable bt =
      build_bounds(test::random_polygon(21, 36, 0, 0, 10), {});
  scanbeam_ys_merged_into(bt, ys);
  EXPECT_EQ(ys, sorted_ys(bt));
}

// merge_sorted_runs_unique against the pairwise std::inplace_merge + unique
// it replaces, bit for bit: odd and even run counts, one run, empty runs,
// and -0.0 / 0.0 in different runs (the earlier run's zero is kept). The
// same buffer serves every case, so one that starts larger or smaller than
// the schedule is covered too.
TEST(Bounds, MergeSortedRunsMatchesInplaceMergeReference) {
  using Runs = std::vector<std::vector<double>>;
  const auto reference = [](const Runs& runs) {
    std::vector<double> ys;
    std::vector<std::size_t> end{0};
    for (const auto& r : runs) {
      ys.insert(ys.end(), r.begin(), r.end());
      end.push_back(ys.size());
    }
    while (end.size() > 2) {
      std::vector<std::size_t> next{0};
      std::size_t i = 0;
      for (; i + 2 < end.size(); i += 2) {
        std::inplace_merge(ys.begin() + static_cast<std::ptrdiff_t>(end[i]),
                           ys.begin() + static_cast<std::ptrdiff_t>(end[i + 1]),
                           ys.begin() + static_cast<std::ptrdiff_t>(end[i + 2]));
        next.push_back(end[i + 2]);
      }
      if (i + 1 < end.size()) next.push_back(end[i + 1]);
      end.swap(next);
    }
    ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
    return ys;
  };
  const auto bits = [](const std::vector<double>& v) {
    std::vector<std::uint64_t> b;
    for (const double y : v) b.push_back(std::bit_cast<std::uint64_t>(y));
    return b;
  };
  const Runs cases[] = {
      {},
      {{}},
      {{-1.0, 0.0, 2.5}},
      {{-0.0, 1.0}, {0.0, 3.0}},
      {{0.0, 1.0}, {-0.0, 3.0}},
      {{-2.0, 0.0}, {}, {-0.0, 4.0, 5.0}},
      {{1.0, 4.0}, {}, {2.0, 4.0}, {-0.0}, {0.0, 3.0}},
      {{}, {}, {}, {}, {}},
      {{3.0}, {0.0, 3.0}, {-5.0, -0.0}, {1.0, 2.0, 3.0, 4.0}, {-0.0}},
  };
  std::vector<double> buf(64, 9.0);
  for (const Runs& runs : cases) {
    std::vector<double> ys;
    std::vector<std::size_t> end{0};
    for (const auto& r : runs) {
      ys.insert(ys.end(), r.begin(), r.end());
      end.push_back(ys.size());
    }
    if (runs.empty()) end.push_back(0);  // one empty run
    merge_sorted_runs_unique(ys, end, buf);
    EXPECT_EQ(bits(ys), bits(reference(runs))) << runs.size() << " runs";
  }
  // Many runs of a random table's fragments: one run per contour.
  for (const unsigned seed : {3u, 4u, 5u}) {
    Runs runs;
    for (unsigned k = 0; k < 7; ++k) {
      const BoundTable bt = build_bounds(
          test::random_polygon(seed * 10 + k, 12 + 5 * k, 0, 0, 4), {});
      runs.push_back(sorted_ys(bt));
    }
    std::vector<double> ys;
    std::vector<std::size_t> end{0};
    for (const auto& r : runs) {
      ys.insert(ys.end(), r.begin(), r.end());
      end.push_back(ys.size());
    }
    merge_sorted_runs_unique(ys, end, buf);
    EXPECT_EQ(bits(ys), bits(reference(runs))) << "seed " << seed;
  }
}

// ---- Ring walk: byte-identical to the modulo-indexed decomposition. ----

/// Reference decomposition with every ring index taken modulo n — the
/// plain form of append_bounds, which steps round the ring without a
/// division.
void reference_bounds(BoundTable& bt, const geom::Contour& c, bool is_clip) {
  const std::size_t n = c.size();
  const auto at = [&](std::size_t i) -> const Point& { return c[i % n]; };
  const auto chain = [&](std::size_t i, std::size_t step) {
    std::int32_t first = -1, prev = -1;
    for (; at(i + step).y > at(i).y; i = (i + step) % n) {
      BoundEdge e;
      e.bot = at(i);
      e.top = at(i + step);
      e.dxdy = (e.top.x - e.bot.x) / (e.top.y - e.bot.y);
      e.is_clip = is_clip;
      const auto id = static_cast<std::int32_t>(bt.edges.size());
      bt.edges.push_back(e);
      if (prev >= 0) bt.edges[static_cast<std::size_t>(prev)].next = id;
      if (first < 0) first = id;
      prev = id;
    }
    return first;
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (!(at(i + n - 1).y > at(i).y && at(i + 1).y > at(i).y)) continue;
    const std::int32_t fwd = chain(i, 1), bwd = chain(i, n - 1);
    const bool fwd_left = bt.edges[static_cast<std::size_t>(fwd)].dxdy <=
                          bt.edges[static_cast<std::size_t>(bwd)].dxdy;
    bt.minima.push_back({at(i), fwd_left ? fwd : bwd, fwd_left ? bwd : fwd});
  }
}

/// Bit-exact table equality, field by field (BoundEdge has padding, so no
/// memcmp).
void expect_same_table(const BoundTable& a, const BoundTable& b,
                       const std::string& what) {
  ASSERT_EQ(a.edges.size(), b.edges.size()) << what;
  ASSERT_EQ(a.minima.size(), b.minima.size()) << what;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    const BoundEdge &x = a.edges[i], &y = b.edges[i];
    ASSERT_TRUE(bits(x.bot.x) == bits(y.bot.x) &&
                bits(x.bot.y) == bits(y.bot.y) &&
                bits(x.top.x) == bits(y.top.x) &&
                bits(x.top.y) == bits(y.top.y) &&
                bits(x.dxdy) == bits(y.dxdy) && x.is_clip == y.is_clip &&
                x.next == y.next)
        << what << ": edge " << i;
  }
  for (std::size_t i = 0; i < a.minima.size(); ++i) {
    const LocalMin &x = a.minima[i], &y = b.minima[i];
    ASSERT_TRUE(bits(x.pt.x) == bits(y.pt.x) && bits(x.pt.y) == bits(y.pt.y) &&
                x.edge_left == y.edge_left && x.edge_right == y.edge_right)
        << what << ": minimum " << i;
  }
}

void expect_same_ys(const std::vector<double>& a, const std::vector<double>& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << ": y " << i;
}

/// Decompose the prepared contour `c` behind a table that already holds
/// `prefix`'s bounds (so edge ids are rebased) and require the bytes of
/// reference_bounds: edges, minima and the schedule built from them.
void expect_matches_reference(const geom::Contour& c, const std::string& what,
                              const geom::Contour* prefix = nullptr) {
  BoundTable ref, bt;
  if (prefix) {
    reference_bounds(ref, *prefix, /*is_clip=*/false);
    append_bounds(bt, *prefix, /*is_clip=*/false);
  }
  reference_bounds(ref, c, /*is_clip=*/true);
  append_bounds(bt, c, /*is_clip=*/true);
  expect_same_table(bt, ref, what);
  std::vector<double> ys, ref_ys;
  scanbeam_ys_merged_into(bt, ys);
  scanbeam_ys_merged_into(ref, ref_ys);
  expect_same_ys(ys, ref_ys, what);
}

geom::Contour prepared(const geom::Contour& c) {
  geom::Contour out;
  EXPECT_TRUE(prepare_contour_points(c, out));
  return out;
}

geom::Contour rotated(const geom::Contour& c, std::size_t by) {
  geom::Contour r;
  for (std::size_t i = 0; i < c.size(); ++i)
    r.pts.push_back(c[(i + by) % c.size()]);
  return r;
}

/// Zigzag: a local minimum at every even vertex (the sawtooth's teeth),
/// closed by a top edge.
geom::Contour sawtooth(int teeth) {
  geom::Contour c;
  for (int i = 0; i < 2 * teeth; ++i)
    c.pts.push_back({static_cast<double>(i),
                     i % 2 == 0 ? 0.01 * (i % 13) : 5.0 + 0.03 * (i % 11)});
  c.pts.push_back({2.0 * teeth, 9.0});
  c.pts.push_back({-1.0, 9.5});
  return c;
}

TEST(RingBounds, EveryRotationMatchesReference) {
  // Rotating the ring moves every minimum and maximum through vertex 0
  // and n - 1, where the chains wrap around the ring.
  const geom::Contour poly =
      prepared(test::random_polygon(71, 40, 0, 0, 10).contours[0]);
  const geom::Contour saw = prepared(sawtooth(9));
  for (const geom::Contour* c : {&poly, &saw})
    for (std::size_t by = 0; by < c->size(); ++by)
      expect_matches_reference(rotated(*c, by),
                               "rotation " + std::to_string(by), &poly);
}

TEST(RingBounds, WrapAroundMinimaAtFirstAndLastVertex) {
  const geom::Contour c = prepared(sawtooth(12));
  const std::size_t n = c.size();
  auto is_min = [](const geom::Contour& r, std::size_t i) {
    const std::size_t m = r.size();
    return r[(i + m - 1) % m].y > r[i].y && r[(i + 1) % m].y > r[i].y;
  };
  bool first = false, last = false;
  for (std::size_t by = 0; by < n; ++by) {
    const geom::Contour r = rotated(c, by);
    if (!is_min(r, 0) && !is_min(r, n - 1)) continue;
    first = first || is_min(r, 0);
    last = last || is_min(r, n - 1);
    expect_matches_reference(r, "rotation " + std::to_string(by));
  }
  EXPECT_TRUE(first && last);
}

TEST(RingBounds, SawtoothMinimumAtEveryOtherVertex) {
  const geom::Contour c = prepared(sawtooth(500));
  BoundTable bt;
  append_bounds(bt, c, false);
  EXPECT_EQ(bt.minima.size(), 500u);  // one per tooth
  expect_matches_reference(c, "sawtooth");
}

TEST(RingBounds, ConvexPolygonChainsWrapPastLastVertex) {
  // 50k vertices, one minimum, two bounds of ~25k edges each; the one
  // running forward wraps past vertex n - 1.
  geom::Contour c;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double a = 2.0 * M_PI * (i + 0.3) / kN;
    c.pts.push_back({100.0 * std::cos(a), 100.0 * std::sin(a)});
  }
  const geom::Contour p = prepared(c);
  BoundTable bt;
  append_bounds(bt, p, false);
  EXPECT_EQ(bt.minima.size(), 1u);
  EXPECT_EQ(bt.edges.size(), static_cast<std::size_t>(kN));
  expect_matches_reference(p, "convex");
}

TEST(RingBounds, HorizontalEdgeSurvivingPerturbation) {
  // At y ~ 1e20 the nudge quantum is far below one ulp, so the base edge
  // stays exactly horizontal; it joins no bound, and the chains beside it
  // stop there.
  const double y0 = 1e20, u = 1 << 20;
  geom::Contour c{{{0, y0}, {10, y0}}};
  for (int i = 0; i < 40; ++i)
    c.pts.push_back({20.0 + 10 * i, y0 + u * (i % 2 == 0 ? 4 + i % 5 : 1)});
  c.pts.push_back({500.0, y0 + 64 * u});
  const geom::Contour p = prepared(c);
  PolygonSet ps;
  ps.add(p);
  ASSERT_TRUE(geom::has_horizontal_edges(ps));
  for (std::size_t by = 0; by < p.size(); by += 5)
    expect_matches_reference(rotated(p, by), "rotation " + std::to_string(by));
}

// -0.0 == +0.0: which zero the schedule keeps must not depend on the sort.
// The digests below were recorded with a schedule built by stably merging
// each bound's ascending ys (minima order, left head first); fragments
// (short schedules sort with std::sort, the sawtooth's with the radix
// sort), a whole table's schedule, and vatti_clip / slab_clip output must
// keep them.
TEST(RingBounds, SignedZeroOrdinatesKeepTheirBits) {
  const auto ys_digest = [](const std::vector<double>& ys) {
    return fnv1a(ys.data(), ys.size() * sizeof(double), kFnvBasis);
  };
  // +0.0 minimum before a -0.0 one; a +0.0 top on the left bound before a
  // -0.0 top on the right one; -0.0 minimum before a +0.0 one.
  const geom::Contour a{
      {{0, 0.0}, {1, 1}, {2, -0.0}, {3, 1}, {3.5, 2.5}, {0.5, 2.4}}};
  const geom::Contour b{
      {{1.5, -1}, {2.6, -0.0}, {2.8, 2}, {1.2, 1.8}, {1.0, 0.0}}};
  const geom::Contour c{
      {{5, -0.0}, {6, 1}, {7, 0.0}, {8, 1}, {8.5, 2.5}, {5.5, 2.4}}};
  geom::Contour saw;
  for (int i = 0; i < 1600; ++i) {
    const double low = i == 0 ? 0.0 : i == 2 ? -0.0 : -1e-3 * i;
    saw.pts.push_back(
        {static_cast<double>(i), i % 2 == 0 ? low : 10.0 + 0.1 * (i % 7)});
  }
  saw.pts.push_back({1600.0, 20.0});
  saw.pts.push_back({-1.0, 20.5});

  const struct {
    const geom::Contour* c;
    std::uint64_t digest;
    bool negative;
  } frags[] = {{&a, 0x5726a6943755074dull, false},
               {&b, 0x09e45be28f040360ull, false},
               {&c, 0xeea0061a1f3906cdull, true},
               {&saw, 0x0955e8b03982aeb4ull, false}};
  for (const auto& f : frags) {
    PreparedContour pc;
    ASSERT_TRUE(prepare_contour(*f.c, false, pc));
    EXPECT_EQ(ys_digest(pc.ys), f.digest);
    const auto z = std::lower_bound(pc.ys.begin(), pc.ys.end(), 0.0);
    ASSERT_TRUE(z != pc.ys.end() && *z == 0.0);
    EXPECT_EQ(std::signbit(*z), f.negative);
    EXPECT_EQ(sorted_ys(pc.bt), pc.ys);  // the sorted oracle, up to the zero's sign
  }

  PolygonSet subject, clip;
  subject.add(a);
  subject.add(c);
  subject.add(saw);
  clip.add(b);
  BoundTable bt;
  std::vector<double> ys;
  geom::Contour prep;
  build_bounds_into(bt, ys, subject, clip, prep);
  EXPECT_EQ(ys_digest(ys), 0x8f64dda0f951e664ull);

  par::ThreadPool pool(4);
  // slab3 holds vatti's rings with their bits (the seams welded away), in
  // the welded output's order.
  const struct {
    geom::BoolOp op;
    std::uint64_t vatti, slab3;
  } outs[] = {
      {geom::BoolOp::kIntersection, 0x100006e6cbf3bd06ull,
       0x100006e6cbf3bd06ull},
      {geom::BoolOp::kUnion, 0x3d15e00322ee2326ull, 0x8288683a24921bd2ull},
      {geom::BoolOp::kDifference, 0x2a9d34f6c51ff2f6ull,
       0x96ed8a8ed235954aull},
      {geom::BoolOp::kXor, 0xa5ee792c3105c94full, 0x075935a3e8b9b459ull},
  };
  for (const auto& o : outs) {
    SCOPED_TRACE(geom::to_string(o.op));
    EXPECT_EQ(golden::output_digest(vatti_clip(subject, clip, o.op)),
              o.vatti);
    for (const unsigned slabs : {1u, 3u}) {
      mt::Alg2Options opts;
      opts.slabs = slabs;
      EXPECT_EQ(golden::output_digest(
                    mt::slab_clip(subject, clip, o.op, pool, opts)),
                slabs == 1 ? o.vatti : o.slab3);
    }
  }
}

// The zero a schedule keeps is the one met first walking the bounds, on
// both sides of the radix threshold: a sawtooth whose two zero minima come
// first in minima order (x = 0 before x = 2), with either sign first, as a
// short schedule (std::sort) and as one of more than 160 values (radix),
// sorted in a fresh vector and in one with room for the radix buffer.
TEST(RingBounds, SignedZeroOnBothSortPaths) {
  for (const bool negative_first : {false, true}) {
    for (const int teeth : {60, 600}) {
      geom::Contour saw;
      for (int i = 0; i < teeth; ++i) {
        const double low = i == 0   ? (negative_first ? -0.0 : 0.0)
                           : i == 2 ? (negative_first ? 0.0 : -0.0)
                                    : 1e-3 * i;
        saw.pts.push_back(
            {static_cast<double>(i), i % 2 == 0 ? low : 10.0 + 0.1 * (i % 7)});
      }
      saw.pts.push_back({static_cast<double>(teeth), 20.0});
      saw.pts.push_back({-1.0, 20.5});
      PreparedContour pc;
      ASSERT_TRUE(prepare_contour(saw, false, pc));
      SCOPED_TRACE(std::to_string(pc.bt.minima.size() + pc.bt.edges.size()) +
                   " schedule values");
      const std::size_t n = pc.bt.minima.size() + pc.bt.edges.size();
      EXPECT_EQ(teeth > 100, n >= 160);
      std::vector<double> roomy;
      roomy.reserve(2 * n);
      scanbeam_ys_merged_into(pc.bt, roomy);
      for (const std::vector<double>* ys : {&pc.ys, &roomy}) {
        EXPECT_EQ(sorted_ys(pc.bt), *ys);  // up to the zero's sign
        const auto z = std::lower_bound(ys->begin(), ys->end(), 0.0);
        ASSERT_TRUE(z != ys->end() && *z == 0.0);
        EXPECT_EQ(std::signbit(*z), negative_first);
      }
    }
  }
}

TEST(Bounds, DegenerateContoursSkipped) {
  PolygonSet p;
  p.add({{0, 0}, {1, 1}});          // too small
  p.add({{0, 0}, {4, 1}, {2, 5}});  // fine
  const BoundTable bt = build_bounds(p, {});
  EXPECT_EQ(bt.edges.size(), 3u);
}

}  // namespace
}  // namespace psclip::seq
