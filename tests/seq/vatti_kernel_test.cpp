// Tests for the cache-conscious sweep kernel (SweepKernel::kTuned):
//
//   * byte-identity against the reference kernel across the whole 216-case
//     fuzz corpus, for sequential vatti_clip AND for slab_clip with the
//     kernel plumbed through Alg2Options — the tuned kernel is a pure cost
//     optimization, it may not change a single bit of output;
//   * the AET invariant checker as a programmatic hook (VattiScratch::
//     validate) run over the full corpus: zero violations on correct
//     sweeps, env-independent;
//   * nearly-sorted beam detection: beams without crossings must hit the
//     fast path (sorted_beams counter), beams with crossings must not, and
//     the same split must reach the obs counter sink.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "fuzz_cases.hpp"
#include "geom/polygon.hpp"
#include "mt/algorithm2.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "seq/vatti.hpp"

namespace psclip {
namespace {

using fuzz::FuzzCase;
using fuzz::Inputs;
using fuzz::make_inputs;
using geom::PolygonSet;

/// Per-contour, per-vertex exact equality — the same lane the slab-cut
/// identity tests use. EXPECT_EQ on doubles is bitwise for
/// these purposes (the corpus produces no NaNs; -0.0 == 0.0 would pass,
/// which is an acceptable notion of "identical output").
void expect_identical(const PolygonSet& a, const PolygonSet& b,
                      const char* what) {
  ASSERT_EQ(a.num_contours(), b.num_contours()) << what << ": contour count";
  for (std::size_t i = 0; i < a.contours.size(); ++i) {
    const auto& ca = a.contours[i];
    const auto& cb = b.contours[i];
    ASSERT_EQ(ca.pts.size(), cb.pts.size()) << what << ": contour " << i;
    EXPECT_EQ(ca.hole, cb.hole) << what << ": contour " << i;
    for (std::size_t j = 0; j < ca.pts.size(); ++j) {
      EXPECT_EQ(ca.pts[j].x, cb.pts[j].x)
          << what << ": contour " << i << " vertex " << j;
      EXPECT_EQ(ca.pts[j].y, cb.pts[j].y)
          << what << ": contour " << i << " vertex " << j;
    }
  }
}

class VattiKernelFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(VattiKernelFuzz, TunedMatchesReferenceExactly) {
  const FuzzCase c = GetParam();
  SCOPED_TRACE("repro: " + c.repro());
  const Inputs in = make_inputs(c);

  // Sequential engine, both kernels.
  seq::VattiStats st_tuned, st_ref;
  const PolygonSet tuned = seq::vatti_clip(in.a, in.b, c.op, &st_tuned,
                                           nullptr, seq::SweepKernel::kTuned);
  const PolygonSet ref = seq::vatti_clip(in.a, in.b, c.op, &st_ref, nullptr,
                                         seq::SweepKernel::kReference);
  expect_identical(tuned, ref, "vatti_clip");

  // The kernels walk the same beams and discover the same crossings — the
  // counters the complexity analysis cares about may not drift either.
  EXPECT_EQ(st_tuned.scanbeams, st_ref.scanbeams);
  EXPECT_EQ(st_tuned.intersections, st_ref.intersections);
  EXPECT_EQ(st_tuned.max_aet, st_ref.max_aet);
  EXPECT_EQ(st_tuned.output_vertices, st_ref.output_vertices);
  EXPECT_EQ(st_tuned.sorted_beams, st_ref.sorted_beams);

  // Algorithm 2 with the kernel selected through Alg2Options (fixed slab
  // count => fixed decomposition; every slab's windowed sweep runs the
  // selected kernel).
  static par::ThreadPool pool(4);
  mt::Alg2Options ot;
  ot.slabs = 6;
  ot.sweep_kernel = seq::SweepKernel::kTuned;
  mt::Alg2Options orf = ot;
  orf.sweep_kernel = seq::SweepKernel::kReference;
  const PolygonSet slab_tuned = mt::slab_clip(in.a, in.b, c.op, pool, ot);
  const PolygonSet slab_ref = mt::slab_clip(in.a, in.b, c.op, pool, orf);
  expect_identical(slab_tuned, slab_ref, "slab_clip");
  // And the parallel result equals the sequential one in canonical form
  // modulo slab splitting — already covered by cross_engine_fuzz; here the
  // two kernels' parallel outputs matching bit-for-bit is the contract.
}

TEST_P(VattiKernelFuzz, ValidateHookSeesNoViolations) {
  const FuzzCase c = GetParam();
  SCOPED_TRACE("repro: " + c.repro());
  const Inputs in = make_inputs(c);

  // Force the AET invariant checker on programmatically (no environment
  // variable involved) for both kernels: parity flags and x-order must hold
  // at every scanbeam of every corpus case.
  for (const seq::SweepKernel k :
       {seq::SweepKernel::kTuned, seq::SweepKernel::kReference}) {
    seq::VattiScratch scratch;
    scratch.validate = 1;
    seq::VattiStats st;
    (void)seq::vatti_clip(in.a, in.b, c.op, &st, &scratch, k);
    EXPECT_EQ(st.validate_failures, 0)
        << "kernel=" << static_cast<int>(k);
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, VattiKernelFuzz,
                         ::testing::ValuesIn(fuzz::make_cases()));

// ---------------------------------------------------------------------------

/// Minimal TraceSink capturing add_counter calls only.
class CounterSink : public obs::TraceSink {
 public:
  obs::SpanId begin_span(const char*, obs::Cat, obs::SpanId) override {
    return obs::SpanId{1};
  }
  void end_span(obs::SpanId) override {}
  void span_arg(obs::SpanId, const char*, std::int64_t) override {}
  void add_counter(const char* name, std::int64_t delta) override {
    counters_[name] += delta;
  }
  void observe(const char*, double) override {}

  [[nodiscard]] std::int64_t get(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

 private:
  std::map<std::string, std::int64_t> counters_;
};

/// Restores the previous global sink even if the test body fails.
class GlobalSinkGuard {
 public:
  explicit GlobalSinkGuard(obs::TraceSink* s) : prev_(obs::global_sink()) {
    obs::set_global_sink(s);
  }
  ~GlobalSinkGuard() { obs::set_global_sink(prev_); }

 private:
  obs::TraceSink* prev_;
};

PolygonSet triangle(double x, double y) {
  PolygonSet p;
  p.add({{x, y}, {x + 1.0, y + 0.1}, {x + 0.4, y + 1.0}});
  return p;
}

TEST(VattiSortedBeams, DisjointInputsHitFastPathEveryBeam) {
  // Two far-apart triangles: the AET never has an inversion, so every
  // scanbeam must take the sorted fast path and no crossing may be found.
  seq::VattiStats st;
  (void)seq::vatti_clip(triangle(0, 0), triangle(100, 0),
                        geom::BoolOp::kUnion, &st);
  EXPECT_GT(st.scanbeams, 0);
  EXPECT_EQ(st.sorted_beams, st.scanbeams);
  EXPECT_EQ(st.intersections, 0);
  // Structural edits (minima insertion, maxima removal) still refresh the
  // flat index.
  EXPECT_GT(st.pos_rebuilds, 0);
}

TEST(VattiSortedBeams, CrossingEdgesMissFastPathOnCrossingBeams) {
  // Two long thin crossing quads (an X): the beams containing the
  // crossings must NOT count as sorted, the rest must.
  PolygonSet a, b;
  a.add({{0.0, 0.0}, {10.0, 9.0}, {10.0, 10.0}, {0.0, 1.0}});
  b.add({{0.0, 9.0}, {10.0, 0.0}, {10.0, 1.0}, {0.0, 10.0}});
  seq::VattiStats st;
  (void)seq::vatti_clip(a, b, geom::BoolOp::kIntersection, &st);
  EXPECT_GT(st.intersections, 0);
  EXPECT_GT(st.scanbeams, st.sorted_beams)
      << "crossing beams cannot be sorted beams";
  EXPECT_GT(st.sorted_beams, 0) << "crossing-free beams must still fast-path";
}

TEST(VattiSortedBeams, CountersReachObsSink) {
  // Without a stats out-param the counters must still be emitted through
  // the process-wide sink, and match what a stats run reports.
  seq::VattiStats st;
  (void)seq::vatti_clip(triangle(0, 0), triangle(100, 0),
                        geom::BoolOp::kUnion, &st);

  CounterSink sink;
  {
    GlobalSinkGuard guard(&sink);
    (void)seq::vatti_clip(triangle(0, 0), triangle(100, 0),
                          geom::BoolOp::kUnion);
  }
  EXPECT_EQ(sink.get("vatti.scanbeams"), st.scanbeams);
  EXPECT_EQ(sink.get("vatti.sorted_beams"), st.sorted_beams);
  EXPECT_EQ(sink.get("vatti.pos_rebuilds"), st.pos_rebuilds);
}

TEST(VattiValidateHook, ForcedOffIgnoresScratchDefault) {
  // validate = 0 must run the sweep with the checker off regardless of the
  // environment; the output is unaffected either way.
  const PolygonSet a = triangle(0, 0);
  const PolygonSet b = triangle(0.3, 0.2);
  seq::VattiScratch off, on;
  off.validate = 0;
  on.validate = 1;
  seq::VattiStats st_off, st_on;
  const PolygonSet r_off =
      seq::vatti_clip(a, b, geom::BoolOp::kIntersection, &st_off, &off);
  const PolygonSet r_on =
      seq::vatti_clip(a, b, geom::BoolOp::kIntersection, &st_on, &on);
  EXPECT_EQ(st_off.validate_failures, 0);
  EXPECT_EQ(st_on.validate_failures, 0);
  expect_identical(r_off, r_on, "validate on/off");
}

}  // namespace
}  // namespace psclip
