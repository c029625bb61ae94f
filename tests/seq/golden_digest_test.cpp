// The golden output digest table (tests/golden_digests.hpp) is complete
// and the paper-scale inputs still produce its bytes. The corpus cases are
// checked one by one in vatti_kernel_test (VattiKernelFuzz), the beam-top
// edge cases there too (VattiEventTop).
//
// With PSCLIP_REGEN_DIGESTS=1, TableCoversEveryInput first rewrites
// tests/data/golden_digests.txt from the current engines.
//
// The seam-free oracle (SeamFree.*) checks the merges on the same inputs:
// with its seams welded, slab_clip at 6 and 16 slabs returns exactly
// vatti_clip's rings, and so does Algorithm 1 on the corpus and the
// beam-top inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "golden_digests.hpp"
#include "mt/slab_index.hpp"
#include "obs/trace.hpp"
#include "parallel/cancel.hpp"
#include "parallel/thread_pool.hpp"
#include "test_support.hpp"

namespace psclip {
namespace {

par::ThreadPool& pool() {
  static par::ThreadPool p(4);
  return p;
}

TEST(GoldenDigests, TableCoversEveryInput) {
  if (golden::regenerating()) {
    golden::Table t;
    golden::all_digests(
        pool(), [&](const std::string& k, std::uint64_t d) { t[k] = d; });
    ASSERT_TRUE(golden::write_table(t)) << PSCLIP_GOLDEN_DIGESTS;
    const golden::Table reread = golden::load_table();
    ASSERT_EQ(reread, t) << "rewritten table does not read back";
    std::printf("wrote %zu digests to %s\n", t.size(), PSCLIP_GOLDEN_DIGESTS);
    return;
  }
  const auto keys = golden::expected_keys();
  EXPECT_EQ(golden::table().size(), keys.size());
  for (const std::string& k : keys)
    EXPECT_EQ(golden::table().count(k), 1u) << "missing " << k;
}

void expect_input_matches(const std::string& name) {
  for (const golden::NamedInput& in : golden::large_inputs()) {
    if (in.name != name) continue;
    golden::engine_digests(in.name, in.a, in.b, pool(), /*alg1=*/false,
                           [](const std::string& k, std::uint64_t d) {
                             EXPECT_EQ(d, golden::expected(k)) << k;
                           });
    return;
  }
  FAIL() << "no large input named " << name;
}

TEST(GoldenDigests, SyntheticPair24k) { expect_input_matches("pair24k"); }

TEST(GoldenDigests, Table3Layers) { expect_input_matches("table3"); }

TEST(GoldenDigests, PolygonFieldOverlay) {
  expect_input_matches("field4000");
}

// ---------------------------------------------------------------------------
// Seam-free oracle
// ---------------------------------------------------------------------------

constexpr unsigned kWeldedSlabCounts[] = {6, 16};

/// Welded slab_clip at 6 and 16 slabs and, when `alg1`, Algorithm 1 have
/// vatti_clip's contour count and ring set under every operator.
void expect_seam_free(const std::string& name, const geom::PolygonSet& a,
                      const geom::PolygonSet& b, bool alg1) {
  for (const geom::BoolOp op : geom::kAllOps) {
    const geom::PolygonSet want = seq::vatti_clip(a, b, op);
    const auto want_rings = test::normalized_rings(want);
    if (alg1) {
      const geom::PolygonSet got = core::scanbeam_clip(a, b, op, pool());
      const std::string what = golden::key(name, op, "alg1");
      EXPECT_EQ(got.num_contours(), want.num_contours()) << what;
      EXPECT_TRUE(test::normalized_rings(got) == want_rings) << what;
    }
    for (const unsigned slabs : kWeldedSlabCounts) {
      mt::Alg2Options o;
      o.slabs = slabs;
      mt::Alg2Stats st;
      const geom::PolygonSet got = mt::slab_clip(a, b, op, pool(), o, &st);
      const std::string what =
          golden::key(name, op, golden::slab_engine(slabs));
      ASSERT_EQ(st.degraded_slabs(), 0) << what;
      EXPECT_EQ(got.num_contours(), want.num_contours()) << what;
      EXPECT_TRUE(test::normalized_rings(got) == want_rings) << what;
    }
  }
}

TEST(SeamFree, CorpusMatchesVattiRings) {
  for (const fuzz::FuzzCase& c : fuzz::make_cases()) {
    const fuzz::Inputs in = fuzz::make_inputs(c);
    expect_seam_free(golden::corpus_name(c), in.a, in.b, /*alg1=*/true);
  }
}

TEST(SeamFree, PaperScaleInputsMatchVattiRings) {
  for (const golden::NamedInput& in : golden::large_inputs())
    expect_seam_free(in.name, in.a, in.b, /*alg1=*/false);
}

TEST(SeamFree, BeamTopInputsMatchVattiRings) {
  for (const golden::NamedInput& in : golden::top_step_inputs()) {
    // top/stray_between_partners and top/shared_scanline_and_apex put
    // vertices exactly on other vertices, outside the general-position
    // contract; Vatti itself misses boolean_area_oracle on them, and the
    // symbolic tie-break ROADMAP.md plans for horizontal edges is what
    // would make the engines agree there.
    if (in.name == "top/stray_between_partners" ||
        in.name == "top/shared_scanline_and_apex")
      continue;
    expect_seam_free(in.name, in.a, in.b, /*alg1=*/true);
  }
}

// The table is written from pool(4) runs; one thread must give its bytes.
TEST(SeamFree, OutputDoesNotDependOnThePool) {
  par::ThreadPool serial(1);
  for (const golden::NamedInput& in : golden::large_inputs())
    for (const geom::BoolOp op : geom::kAllOps)
      for (const unsigned slabs : kWeldedSlabCounts) {
        mt::Alg2Options o;
        o.slabs = slabs;
        const std::string k =
            golden::key(in.name, op, golden::slab_engine(slabs));
        EXPECT_EQ(golden::output_digest(
                      mt::slab_clip(in.a, in.b, op, serial, o)),
                  golden::expected(k))
            << k;
      }
}

// The same for Algorithm 1 on the inputs it has rows for.
TEST(SeamFree, Alg1OutputDoesNotDependOnThePool) {
  par::ThreadPool serial(1);
  const auto expect_golden = [&](const std::string& name,
                                 const geom::PolygonSet& a,
                                 const geom::PolygonSet& b) {
    for (const geom::BoolOp op : geom::kAllOps) {
      const std::string k = golden::key(name, op, "alg1");
      EXPECT_EQ(golden::output_digest(core::scanbeam_clip(a, b, op, serial)),
                golden::expected(k))
          << k;
    }
  };
  for (const fuzz::FuzzCase& c : fuzz::make_cases()) {
    const fuzz::Inputs in = fuzz::make_inputs(c);
    expect_golden(golden::corpus_name(c), in.a, in.b);
  }
  for (const golden::NamedInput& in : golden::top_step_inputs())
    expect_golden(in.name, in.a, in.b);
}

// Perturbation tilts the squares' horizontal edges, and b's bottom edge
// crosses a's right side at the middle of its own y-range — where a slab
// line lands at 3, 5 and 8 slabs. That crossing is a corner of the output
// lying on the line, not a cut point, so every vertex of vatti_clip's
// output must survive the merge. (The ring sets need not match here: the
// squares' tilted edges are nearly horizontal, so their cut points are
// rounded by up to ~1e-7 in x, and where two of them cross right at a
// line the two slabs disagree on a sliver about that wide.)
TEST(SeamFree, CrossingOnALineStaysACorner) {
  const geom::PolygonSet a =
      geom::make_polygon({{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  const geom::PolygonSet b =
      geom::make_polygon({{5, 5}, {15, 5}, {15, 15}, {5, 15}});
  for (const geom::BoolOp op : geom::kAllOps) {
    const geom::PolygonSet want = seq::vatti_clip(a, b, op);
    for (const unsigned slabs : {3u, 5u, 8u}) {
      mt::Alg2Options o;
      o.slabs = slabs;
      const geom::PolygonSet got = mt::slab_clip(a, b, op, pool(), o);
      const std::string what =
          std::string(geom::to_string(op)) + " slabs=" + std::to_string(slabs);
      std::vector<std::pair<double, double>> have;
      for (const geom::Contour& c : got.contours)
        for (const geom::Point& q : c.pts) have.emplace_back(q.x, q.y);
      std::sort(have.begin(), have.end());
      for (const geom::Contour& c : want.contours)
        for (const geom::Point& q : c.pts)
          EXPECT_TRUE(std::binary_search(have.begin(), have.end(),
                                         std::pair(q.x, q.y)))
              << what << " lost (" << q.x << ", " << q.y << ")";
      EXPECT_TRUE(test::areas_match(geom::signed_area(got),
                                    geom::signed_area(want), 1e-12))
          << what;
    }
  }
}

/// Trace sink that cancels a token when the `n`-th slab span opens. On a
/// one-thread pool the slabs run in order, so slabs 0 .. n-2 complete and
/// the rest are abandoned.
class CancelAtSlabSink : public obs::TraceSink {
 public:
  CancelAtSlabSink(par::CancelToken t, int n) : token_(std::move(t)), n_(n) {}
  obs::SpanId begin_span(const char* name, obs::Cat, obs::SpanId) override {
    if (std::strcmp(name, "alg2.slab") == 0 && --n_ == 0) token_.cancel();
    return obs::SpanId{next_.fetch_add(1, std::memory_order_relaxed)};
  }
  void end_span(obs::SpanId) override {}
  void span_arg(obs::SpanId, const char*, std::int64_t) override {}
  void add_counter(const char*, std::int64_t) override {}
  void observe(const char*, double) override {}

 private:
  par::CancelToken token_;
  int n_;
  std::atomic<std::uint64_t> next_{1};
};

/// Output vertices lying on y = `line`.
std::size_t vertices_on(const geom::PolygonSet& p, double line) {
  std::size_t n = 0;
  for (const geom::Contour& c : p.contours)
    for (const geom::Point& q : c.pts) n += q.y == line ? 1 : 0;
  return n;
}

TEST(SeamFree, PartialResultWeldsOnlyBetweenCompletedSlabs) {
  const auto pair = data::synthetic_pair(7919, 4000);
  constexpr unsigned kSlabs = 6;
  seq::BoundTable bt;
  std::vector<double> ys;
  geom::Contour prep;
  seq::build_bounds_into(bt, ys, pair.subject, pair.clip, prep);
  const std::vector<double> lines = mt::slab_lines(ys, kSlabs);
  ASSERT_EQ(lines.size(), kSlabs - 1);
  par::ThreadPool serial(1);
  mt::Alg2Options o;
  o.slabs = kSlabs;
  o.allow_partial = true;
  o.cancel = par::CancelToken::make();
  CancelAtSlabSink sink(o.cancel, 4);  // slabs 0-2 complete, 3-5 missing
  o.trace_sink = &sink;
  mt::Alg2Stats st;
  const geom::PolygonSet got = mt::slab_clip(
      pair.subject, pair.clip, geom::BoolOp::kIntersection, serial, o, &st);
  ASSERT_TRUE(st.partial.partial);
  ASSERT_EQ(st.partial.missing.size(), 1u);
  EXPECT_EQ(st.partial.missing[0].first, 3u);
  EXPECT_EQ(st.partial.missing[0].last, kSlabs - 1);
  EXPECT_EQ(st.partial.missing[0].y_lo, lines[2]);
  // Lines 0 and 1 lie between completed slabs: welded, no vertex left on
  // them. Line 2 borders the missing slab 3: its seam stays closed along
  // the line.
  EXPECT_EQ(vertices_on(got, lines[0]), 0u);
  EXPECT_EQ(vertices_on(got, lines[1]), 0u);
  EXPECT_GT(vertices_on(got, lines[2]), 0u);
  // Without the cancel every line is welded.
  mt::Alg2Options full;
  full.slabs = kSlabs;
  const geom::PolygonSet whole = mt::slab_clip(
      pair.subject, pair.clip, geom::BoolOp::kIntersection, serial, full);
  for (const double line : lines) EXPECT_EQ(vertices_on(whole, line), 0u);
}

}  // namespace
}  // namespace psclip
