// Tests for the Vatti sweep kernel:
//
//   * byte identity against the golden digest table (tests/golden_digests.hpp)
//     across the whole 216-case fuzz corpus under every operator, for
//     sequential vatti_clip, for slab_clip at 1, 6 and 16 slabs AND for
//     Algorithm 1 — every kernel change is a pure cost optimization, it may
//     not change a single bit of output;
//   * the AET invariant checker as a programmatic hook (VattiScratch::
//     validate) run over the full corpus: zero violations on correct
//     sweeps, env-independent;
//   * the event-driven beam top on the inputs that reach its rare paths
//     (strays between partners, shared apexes, continuations beside a
//     maximum, a window line just above a maximum), and its visit counts;
//   * the neighbour order certificates on inputs built to break them
//     (slopes one ulp apart, x near 2^52, 1e-300 and 1e300, a subnormal
//     beam, eight edges through one point, a maximum's pair adjacent over
//     a thousand beams), under the validation hook's certificate oracle;
//   * sorted-beam counting: beams without crossings must count as sorted
//     (sorted_beams counter), beams with crossings must not, and the same
//     split must reach the obs counter sink.
//   * the per-thread scratch (seq::thread_scratch) behind vatti_clip without
//     a scratch argument: a clip after a sweep that unwound part way on it
//     returns the golden bytes, and threads clipping at once each match a
//     fresh scratch.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "error.hpp"
#include "fuzz_cases.hpp"
#include "geom/polygon.hpp"
#include "golden_digests.hpp"
#include "mt/algorithm2.hpp"
#include "obs/trace.hpp"
#include "parallel/cancel.hpp"
#include "parallel/fault.hpp"
#include "parallel/thread_pool.hpp"
#include "seq/sweep_events.hpp"
#include "seq/vatti.hpp"
#include "test_support.hpp"

namespace psclip {
namespace {

using fuzz::FuzzCase;
using fuzz::Inputs;
using fuzz::make_inputs;
using geom::PolygonSet;

/// Per-contour, per-vertex exact equality. EXPECT_EQ on doubles is bitwise
/// for these purposes (the inputs produce no NaNs; -0.0 == 0.0 would pass,
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

par::ThreadPool& pool() {
  static par::ThreadPool p(4);
  return p;
}

void expect_golden(const std::string& k, std::uint64_t digest) {
  EXPECT_EQ(digest, golden::expected(k)) << k;
}

class VattiKernelFuzz : public ::testing::TestWithParam<FuzzCase> {};

// The reference kernel this test once compared against is gone; the
// digest table generated from it is the oracle now (the test keeps its
// established name).
TEST_P(VattiKernelFuzz, TunedMatchesReferenceExactly) {
  const FuzzCase c = GetParam();
  SCOPED_TRACE("repro: " + c.repro());
  const Inputs in = make_inputs(c);
  golden::engine_digests(golden::corpus_name(c), in.a, in.b, pool(),
                         /*alg1=*/true, expect_golden);
}

TEST_P(VattiKernelFuzz, ValidateHookSeesNoViolations) {
  const FuzzCase c = GetParam();
  SCOPED_TRACE("repro: " + c.repro());
  const Inputs in = make_inputs(c);

  // Force the AET invariant checker on programmatically (no environment
  // variable involved): parity flags, x-order and the popped beam ends
  // must hold at every scanbeam of every corpus case.
  seq::VattiScratch scratch;
  scratch.validate = 1;
  seq::VattiStats st;
  (void)seq::vatti_clip(in.a, in.b, c.op, &st, &scratch);
  EXPECT_EQ(st.validate_failures, 0);
}

INSTANTIATE_TEST_SUITE_P(Corpus, VattiKernelFuzz,
                         ::testing::ValuesIn(fuzz::make_cases()));

// ---------------------------------------------------------------------------
// The event-driven beam top
// ---------------------------------------------------------------------------

const golden::NamedInput& top_input(const std::string& name) {
  static const std::vector<golden::NamedInput> inputs =
      golden::top_step_inputs();
  for (const golden::NamedInput& in : inputs)
    if (in.name == name) return in;
  throw std::runtime_error("no top-step input " + name);
}

/// The input's digests match the table, and vatti_clip under validation
/// sees no violation, under every operator.
void check_top_input(const std::string& name) {
  const golden::NamedInput& in = top_input(name);
  golden::engine_digests(in.name, in.a, in.b, pool(), /*alg1=*/true,
                         expect_golden);
  for (const geom::BoolOp op : geom::kAllOps) {
    seq::VattiScratch scratch;
    scratch.validate = 1;
    seq::VattiStats st;
    (void)seq::vatti_clip(in.a, in.b, op, &st, &scratch);
    EXPECT_EQ(st.validate_failures, 0) << name << " " << geom::to_string(op);
  }
}

// These inputs break general position on purpose (vertex on vertex), so
// what they pin is the kernel's exact behaviour on them, not a region:
// the table holds the bytes of the full-AET-walk top step they replaced.
TEST(VattiEventTop, StrayBetweenPartners) {
  check_top_input("top/stray_between_partners");
}

TEST(VattiEventTop, SharedScanlineAndApex) {
  check_top_input("top/shared_scanline_and_apex");
}

TEST(VattiEventTop, ContinuationBesideMaximum) {
  check_top_input("top/continuation_beside_maximum");
}

// A window whose top line lies 0.5e-9 above a local maximum: the maximum
// is handled at the last scanline below the line, and nothing of it may
// leak into the line's close-out. The two windows tile the plane, so
// their areas add up to vatti_clip's.
TEST(VattiEventTop, WindowTopJustAboveMaximum) {
  const golden::NamedInput& in = top_input("top/window_above_max");
  check_top_input(in.name);
  for (const geom::BoolOp op : geom::kAllOps) {
    seq::VattiScratch scratch;
    scratch.validate = 1;
    std::int64_t failures = 0;
    const auto [below, above] = golden::sweep_two_windows(
        in.a, in.b, op, golden::kWindowAboveMaxLine, scratch, &failures);
    const std::string what = in.name + " " + geom::to_string(op);
    EXPECT_EQ(failures, 0) << what;
    expect_golden(golden::key(in.name, op, "window_below"),
                  golden::output_digest(below));
    expect_golden(golden::key(in.name, op, "window_above"),
                  golden::output_digest(above));
    const double want = geom::signed_area(seq::vatti_clip(in.a, in.b, op));
    EXPECT_TRUE(test::areas_match(
        geom::signed_area(below) + geom::signed_area(above), want, 1e-12))
        << what;
  }
}

// ---------------------------------------------------------------------------
// Neighbour order certificates
// ---------------------------------------------------------------------------

/// A certificate attack: its digests match the table (vatti_clip, slab_clip
/// at 1, 6 and 16 slabs, Algorithm 1), and under validation vatti_clip and
/// two windows split between the middle scanlines see no violation — no
/// certified pair inverted, the lazy swap list equal to the eager one, the
/// popped ends equal to the slots ending at the beam top.
void check_certificate_input(const std::string& name) {
  static const std::vector<golden::NamedInput> inputs =
      golden::certificate_inputs();
  const golden::NamedInput* found = nullptr;
  for (const golden::NamedInput& in : inputs)
    if (in.name == name) found = &in;
  ASSERT_NE(found, nullptr) << name;
  const golden::NamedInput& in = *found;
  golden::engine_digests(in.name, in.a, in.b, pool(), /*alg1=*/true,
                         expect_golden);
  const std::vector<double> ys =
      [&] {
        seq::BoundTable bt;
        std::vector<double> v;
        geom::Contour prep;
        seq::build_bounds_into(bt, v, in.a, in.b, prep);
        return v;
      }();
  ASSERT_GE(ys.size(), 4u) << name;
  const std::size_t mid = ys.size() / 2;
  const double line = ys[mid - 1] + (ys[mid] - ys[mid - 1]) / 2;
  for (const geom::BoolOp op : geom::kAllOps) {
    const std::string what = name + " " + geom::to_string(op);
    seq::VattiScratch scratch;
    scratch.validate = 1;
    seq::VattiStats st;
    (void)seq::vatti_clip(in.a, in.b, op, &st, &scratch);
    EXPECT_EQ(st.validate_failures, 0) << what;
    std::int64_t failures = 0;
    (void)golden::sweep_two_windows(in.a, in.b, op, line, scratch,
                                    &failures);
    EXPECT_EQ(failures, 0) << what << " windows at " << line;
  }
}

TEST(VattiCertificates, SlopesOneUlpApart) {
  check_certificate_input("cert/ulp_slopes");
}

TEST(VattiCertificates, CrossingNear2To52) {
  check_certificate_input("cert/x_near_2p52");
}

TEST(VattiCertificates, XNear1em300) {
  check_certificate_input("cert/x_near_1e-300");
}

TEST(VattiCertificates, CoordinatesNear1e300) {
  check_certificate_input("cert/near_1e300");
}

TEST(VattiCertificates, SubnormalBeam) {
  check_certificate_input("cert/subnormal_beam");
}

TEST(VattiCertificates, FanOfEightThroughOnePoint) {
  check_certificate_input("cert/fan_of_eight");
}

TEST(VattiCertificates, ShallowCrossingUnderRoundingNoise) {
  check_certificate_input("cert/shallow_crossing");
}

TEST(VattiCertificates, MaximumPairOverAThousandBeams) {
  check_certificate_input("cert/maximum_pair_1000_beams");
}

// The top step visits the edges that end, not the AET: on a whole-input
// sweep every edge ends exactly once, so it examines each end once plus
// the rare non-partner slots of its partner scans.
TEST(VattiEventTop, TopVisitsFollowEdgesNotAet) {
  const auto pair = data::synthetic_pair(7, 4000);
  for (const geom::BoolOp op : geom::kAllOps) {
    seq::VattiStats st;
    (void)seq::vatti_clip(pair.subject, pair.clip, op, &st);
    EXPECT_GE(st.top_visits, st.edges) << geom::to_string(op);
    EXPECT_LE(static_cast<double>(st.top_visits),
              1.1 * static_cast<double>(st.edges))
        << geom::to_string(op);
    EXPECT_GT(st.aet_visits, 10 * st.top_visits) << geom::to_string(op);
  }
}

// resident_bytes() is what the memory budget charges for a scratch
// (DESIGN.md §11), so it must count every per-slot and per-event buffer:
// the entries, each slot's order certificate (a double) and x-extent (two
// doubles), its position in the beam's sort (x, edge id and stamp: two
// doubles' worth) and its edge's end in the event queue (y, edge id and
// kind: two doubles' worth). Two
// inputs with the same edges, minima, scanlines and output — triangles
// side by side, nearly all active at once, and the same triangles stacked,
// two at a time — differ in resident bytes by those buffers only.
TEST(VattiEventTop, ResidentBytesCountEveryPerSlotBuffer) {
  PolygonSet wide, stacked;
  for (int i = 0; i < 400; ++i) {
    const double x = i * 1.0;
    const double y = i * 1e-3;  // distinct ordinates across triangles
    wide.add({{x, y}, {x + 0.3, 100.0 + y}, {x - 0.3, 100.5 + y}});
    const double z = i * 200.0 + y;
    stacked.add({{0.0, z}, {0.3, 100.0 + z}, {-0.3, 100.5 + z}});
  }
  seq::VattiScratch sw, ss;
  seq::VattiStats stw, sts;
  (void)seq::vatti_clip(wide, PolygonSet{}, geom::BoolOp::kUnion, &stw, &sw);
  (void)seq::vatti_clip(stacked, PolygonSet{}, geom::BoolOp::kUnion, &sts,
                        &ss);
  ASSERT_EQ(stw.edges, sts.edges);
  ASSERT_EQ(stw.scanbeams, sts.scanbeams);
  ASSERT_EQ(stw.output_vertices, sts.output_vertices);
  ASSERT_GE(stw.max_aet, 700);
  const std::size_t per_slot = sizeof(seq::SweepEntry) + 7 * sizeof(double);
  EXPECT_GE(sw.resident_bytes(),
            ss.resident_bytes() +
                static_cast<std::size_t>(stw.max_aet - sts.max_aet) * per_slot);
}

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
  EXPECT_EQ(sink.get("vatti.aet_visits"), st.aet_visits);
  EXPECT_EQ(sink.get("vatti.top_visits"), st.top_visits);
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

// ---------------------------------------------------------------------------
// The per-thread scratch
// ---------------------------------------------------------------------------

/// vatti_clip's digest of every top/* input under every operator against
/// the golden table, on the calling thread's scratch.
void expect_top_inputs_golden() {
  for (const golden::NamedInput& in : golden::top_step_inputs())
    for (const geom::BoolOp op : geom::kAllOps)
      expect_golden(golden::key(in.name, op, "vatti"),
                    golden::output_digest(seq::vatti_clip(in.a, in.b, op)));
}

// A sweep that unwinds part way leaves its thread's scratch holding half a
// run: an AET, queued ends, partial contours in the vertex arena. The next
// clip on that scratch must not see any of it.
TEST(VattiThreadScratch, CleanClipAfterMidSweepThrowIsGolden) {
  // Two convex 8000-gons: two minima, so the pool's first charge fits in
  // one budget granule, and an output of thousands of vertices, whose
  // arena outgrows it part way up the sweep.
  const PolygonSet a = data::random_convex(41, 8000, 0.0, 0.0, 10.0);
  const PolygonSet b = data::random_convex(42, 8000, 3.0, 1.0, 10.0);
  constexpr geom::BoolOp kInt = geom::BoolOp::kIntersection;
  seq::VattiScratch fresh;
  const PolygonSet want = seq::vatti_clip(a, b, kInt, nullptr, &fresh);
  constexpr std::uint64_t kGranule = par::gov::ScopedCharge::kGranule;
  ASSERT_GT(want.num_vertices() * sizeof(geom::Point), kGranule);

  // On a new thread, whose scratch starts empty.
  std::thread([&] {
    auto budget = std::make_shared<par::ResourceBudget>(kGranule);
    par::CancelToken token = par::CancelToken::make();
    token.set_budget(budget);
    {
      par::gov::ScopedToken scope(token);
      try {
        (void)seq::vatti_clip(a, b, kInt);
        ADD_FAILURE() << "the sweep did not outgrow its budget";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kBudgetExceeded) << e.what();
      }
    }
    // The sweep had charged its first granule and was growing output when
    // the next charge failed.
    EXPECT_EQ(budget->peak(), kGranule);
    EXPECT_EQ(budget->used(), 0u);
    expect_identical(seq::vatti_clip(a, b, kInt), want, "after the throw");
    expect_top_inputs_golden();

    // A fault injected at the sweep (injection builds only): a throw at
    // entry, and a poisoned output after a whole run on the scratch.
    if constexpr (par::fault::kEnabled) {
      for (const par::fault::Kind kind :
           {par::fault::Kind::kThrow, par::fault::Kind::kCorrupt}) {
        par::fault::Plan plan;
        plan.site = par::fault::Site::kVattiSweep;
        plan.kind = kind;
        par::fault::arm(plan);
        try {
          (void)seq::vatti_clip(a, b, kInt);
        } catch (const Error&) {
        }
        par::fault::disarm();
        EXPECT_EQ(par::fault::fired(), 1u) << par::fault::to_string(kind);
        expect_identical(seq::vatti_clip(a, b, kInt), want, "after a fault");
        expect_top_inputs_golden();
      }
    }
  }).join();
}

// A governed clip's budget outcome follows from its own request: the sweep
// charges the output it builds, not the capacity that a larger clip left
// in the thread's scratch. A small union is clipped under one budget that
// it fits and one that it does not, on a new thread and on a thread that
// has just clipped a 24k-edge pair; both the outcome and the budget's peak
// must agree.
TEST(VattiThreadScratch, GovernedOutcomeIgnoresThreadHistory) {
  const data::SyntheticPair small = data::synthetic_pair(5, 300);
  const data::SyntheticPair large = data::synthetic_pair(6, 24000);
  constexpr geom::BoolOp kUnion = geom::BoolOp::kUnion;
  struct Outcome {
    bool ok = false;
    std::uint64_t peak = 0;
  };
  const auto governed = [&](std::uint64_t limit) {
    auto budget = std::make_shared<par::ResourceBudget>(limit);
    par::CancelToken token = par::CancelToken::make();
    token.set_budget(budget);
    par::gov::ScopedToken scope(token);
    Outcome out;
    try {
      (void)seq::vatti_clip(small.subject, small.clip, kUnion);
      out.ok = true;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBudgetExceeded) << e.what();
    }
    out.peak = budget->peak();
    return out;
  };
  constexpr std::uint64_t kGranule = par::gov::ScopedCharge::kGranule;
  for (const std::uint64_t limit : {kGranule / 2, 2 * kGranule}) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    Outcome fresh;
    Outcome warmed;
    std::thread([&] { fresh = governed(limit); }).join();
    std::thread([&] {
      (void)seq::vatti_clip(large.subject, large.clip, kUnion);
      warmed = governed(limit);
    }).join();
    EXPECT_EQ(fresh.ok, limit > kGranule);
    EXPECT_EQ(warmed.ok, fresh.ok);
    EXPECT_EQ(warmed.peak, fresh.peak);
  }
}

// The same for a slab attempt: it charges its window's working set by
// size, not the capacity a larger clip left in the thread's scratch. A
// 2000-edge union in one slab on a one-thread pool (every step on the
// calling thread), under a budget that it fits and one that it does not,
// on a new thread and on one that has just clipped a 24k-edge pair the
// same way: both the outcome and the budget's peak must agree.
TEST(VattiThreadScratch, SlabBudgetIgnoresThreadHistory) {
  const data::SyntheticPair small = data::synthetic_pair(5, 2000);
  const data::SyntheticPair large = data::synthetic_pair(6, 24000);
  constexpr geom::BoolOp kUnion = geom::BoolOp::kUnion;
  par::ThreadPool one(1);
  mt::Alg2Options o;
  o.slabs = 1;
  struct Outcome {
    bool ok = false;
    std::uint64_t peak = 0;
  };
  const auto governed = [&](std::uint64_t limit) {
    auto budget = std::make_shared<par::ResourceBudget>(limit);
    mt::Alg2Options g = o;
    g.cancel = par::CancelToken::make();
    g.cancel.set_budget(budget);
    Outcome out;
    try {
      (void)mt::slab_clip(small.subject, small.clip, kUnion, one, g);
      out.ok = true;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBudgetExceeded) << e.what();
    }
    out.peak = budget->peak();
    return out;
  };
  constexpr std::uint64_t kGranule = par::gov::ScopedCharge::kGranule;
  for (const std::uint64_t limit : {kGranule / 2, 16 * kGranule}) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    Outcome fresh;
    Outcome warmed;
    std::thread([&] { fresh = governed(limit); }).join();
    std::thread([&] {
      (void)mt::slab_clip(large.subject, large.clip, kUnion, one, o);
      warmed = governed(limit);
    }).join();
    EXPECT_EQ(fresh.ok, limit > kGranule);
    EXPECT_EQ(warmed.ok, fresh.ok);
    EXPECT_EQ(warmed.peak, fresh.peak);
  }
}

// Threads clipping at once, each on its own scratch, reused across the
// clips it makes: every output equals a fresh scratch's byte for byte.
TEST(VattiThreadScratch, ConcurrentThreadsMatchFreshScratch) {
  std::vector<FuzzCase> cases = fuzz::make_cases();
  cases.resize(std::min<std::size_t>(cases.size(), 48));
  std::vector<Inputs> inputs;
  std::vector<std::uint64_t> want;
  for (const FuzzCase& c : cases) {
    inputs.push_back(make_inputs(c));
    seq::VattiScratch fresh;
    want.push_back(golden::output_digest(seq::vatti_clip(
        inputs.back().a, inputs.back().b, c.op, nullptr, &fresh)));
  }
  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      // Each thread walks the cases from its own offset, so the threads
      // sweep different inputs at the same time.
      for (int round = 0; round < kRounds; ++round)
        for (std::size_t k = 0; k < cases.size(); ++k) {
          const std::size_t i = (k + t * cases.size() / kThreads) %
                                cases.size();
          const std::uint64_t got = golden::output_digest(
              seq::vatti_clip(inputs[i].a, inputs[i].b, cases[i].op));
          if (got != want[i]) mismatches.fetch_add(1);
        }
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace psclip
