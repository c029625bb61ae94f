// Request-governance semantics of the slab engine (DESIGN.md §11), on a
// polygon pair and on two sets of polygons (GIS layers).
//
// Covers the deterministic contracts — the ones that need no timing and no
// fault injection:
//   * a null token governs nothing and changes nothing;
//   * setup-phase trips (a token already cancelled / past deadline at
//     entry) propagate as their precise Error even under allow_partial —
//     the partial contract covers slab tasks only;
//   * a budget too small for any slab attempt fails the request with
//     kBudgetExceeded, or — under allow_partial — returns a partial result
//     whose report names the missing slab ranges;
//   * a mid-run cancellation (delivered deterministically through a trace
//     sink that cancels on the first slab span) follows the same split;
//   * generous-but-real governance is invisible: byte-identical output,
//     no degradation, all charges released, peak recorded.
//
// The stochastic side (deadlines landing mid-sweep, stalls, hogs, budget
// races) lives in soak_test.cpp and fault_fuzz_test.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>

#include "data/synthetic.hpp"
#include "error.hpp"
#include "geom/polygon.hpp"
#include "mt/algorithm2.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "parallel/cancel.hpp"
#include "parallel/thread_pool.hpp"
#include "psclip.hpp"

namespace psclip {
namespace {

bool bit_identical(const geom::PolygonSet& a, const geom::PolygonSet& b) {
  if (a.contours.size() != b.contours.size()) return false;
  for (std::size_t i = 0; i < a.contours.size(); ++i) {
    const auto& ca = a.contours[i];
    const auto& cb = b.contours[i];
    if (ca.hole != cb.hole || ca.pts.size() != cb.pts.size()) return false;
    for (std::size_t j = 0; j < ca.pts.size(); ++j)
      if (ca.pts[j].x != cb.pts[j].x || ca.pts[j].y != cb.pts[j].y)
        return false;
  }
  return true;
}

/// Run `fn`, which must throw psclip::Error; returns its code.
template <typename Fn>
ErrorCode thrown_code(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.code();
  } catch (...) {
    ADD_FAILURE() << "threw something other than psclip::Error";
    return ErrorCode::kTaskFailure;
  }
  ADD_FAILURE() << "expected a governance Error, none thrown";
  return ErrorCode::kTaskFailure;
}

/// Sanity of a partial report against the run that produced it.
void check_partial_report(const mt::Alg2Stats& stats, unsigned nslabs,
                          ErrorCode want_cause) {
  const mt::PartialReport& p = stats.partial;
  EXPECT_TRUE(p.partial);
  EXPECT_EQ(p.cause, want_cause);
  EXPECT_FALSE(p.message.empty());
  ASSERT_FALSE(p.missing.empty());
  EXPECT_GE(p.missing_slabs(), 1u);
  EXPECT_LE(p.missing_slabs(), nslabs);
  std::size_t prev_end = 0;
  bool first = true;
  for (const auto& r : p.missing) {
    EXPECT_LE(r.first, r.last);
    EXPECT_LT(r.last, nslabs);
    EXPECT_LT(r.y_lo, r.y_hi);
    if (!first) EXPECT_GT(r.first, prev_end + 1)
        << "adjacent missing ranges must be merged";
    prev_end = r.last;
    first = false;
  }
  // Every missing slab reports the terminal governance rung, and the rung
  // is reported nowhere else.
  ASSERT_EQ(stats.degradation.size(), nslabs);
  std::size_t partial_rungs = 0;
  for (const auto& d : stats.degradation)
    if (d.rung == mt::Rung::kPartialResult) ++partial_rungs;
  EXPECT_EQ(partial_rungs, p.missing_slabs());
  EXPECT_EQ(stats.worst_rung(), mt::Rung::kPartialResult);
}

/// Every slab span of the run records the rung it ended on and its attempt
/// count — exhausted slabs included — matching Alg2Stats::degradation.
void check_slab_spans(const obs::TraceRecorder& rec, const char* slab_name,
                      const mt::Alg2Stats& stats) {
  std::size_t seen = 0;
  for (const auto& sp : rec.spans()) {
    if (std::strcmp(sp.name, slab_name) != 0) continue;
    ++seen;
    const std::int64_t slab = sp.arg("slab");
    ASSERT_GE(slab, 0);
    ASSERT_LT(static_cast<std::size_t>(slab), stats.degradation.size());
    EXPECT_GE(sp.arg("rung"), 0) << slab_name << " " << slab;
    EXPECT_EQ(sp.arg("attempts"),
              static_cast<std::int64_t>(
                  stats.degradation[static_cast<std::size_t>(slab)].attempts))
        << slab_name << " " << slab;
  }
  EXPECT_EQ(seen, stats.degradation.size());
}

struct Fixture {
  par::ThreadPool pool{4};
  geom::PolygonSet subject, clip;
  mt::Alg2Options base;

  Fixture() {
    const auto pair = data::synthetic_pair(61, 600);
    subject = pair.subject;
    clip = pair.clip;
    base.slabs = 4;
  }
};

Fixture& fx() {
  static Fixture f;
  return f;
}

TEST(Governance, NullTokenChangesNothing) {
  auto& f = fx();
  const geom::PolygonSet want =
      mt::slab_clip(f.subject, f.clip, geom::BoolOp::kUnion, f.pool, f.base);
  mt::Alg2Options o = f.base;
  o.cancel = par::CancelToken{};  // explicit null
  mt::Alg2Stats stats;
  const geom::PolygonSet got =
      mt::slab_clip(f.subject, f.clip, geom::BoolOp::kUnion, f.pool, o, &stats);
  EXPECT_TRUE(bit_identical(got, want));
  EXPECT_FALSE(stats.partial.partial);
  EXPECT_EQ(stats.degraded_slabs(), 0);
}

TEST(Governance, PreCancelledFailsAtEntryEvenWithAllowPartial) {
  auto& f = fx();
  for (const bool allow_partial : {false, true}) {
    mt::Alg2Options o = f.base;
    o.cancel = par::CancelToken::make();
    o.cancel.cancel();
    o.allow_partial = allow_partial;
    EXPECT_EQ(thrown_code([&] {
                mt::slab_clip(f.subject, f.clip, geom::BoolOp::kUnion, f.pool,
                              o);
              }),
              ErrorCode::kCancelled)
        << "allow_partial=" << allow_partial
        << " (the partial contract covers slab tasks, not setup)";
  }
}

TEST(Governance, ExpiredDeadlineFailsPrecisely) {
  auto& f = fx();
  mt::Alg2Options o = f.base;
  o.cancel = par::CancelToken::with_deadline(par::Deadline::in_ms(-1));
  EXPECT_EQ(thrown_code([&] {
              mt::slab_clip(f.subject, f.clip, geom::BoolOp::kIntersection,
                            f.pool, o);
            }),
            ErrorCode::kDeadlineExceeded);
}

TEST(Governance, TinyBudgetFailsPrecisely) {
  auto& f = fx();
  mt::Alg2Options o = f.base;
  o.cancel = par::CancelToken::make();
  auto budget = std::make_shared<par::ResourceBudget>(1);  // 1 byte
  o.cancel.set_budget(budget);
  EXPECT_EQ(thrown_code([&] {
              mt::slab_clip(f.subject, f.clip, geom::BoolOp::kUnion, f.pool, o);
            }),
            ErrorCode::kBudgetExceeded);
  EXPECT_TRUE(budget->blown());
  EXPECT_EQ(budget->used(), 0u) << "unwind must release every charge";
}

TEST(Governance, TinyBudgetWithAllowPartialReturnsPartial) {
  auto& f = fx();
  mt::Alg2Options o = f.base;
  o.cancel = par::CancelToken::make();
  auto budget = std::make_shared<par::ResourceBudget>(1);
  o.cancel.set_budget(budget);
  o.allow_partial = true;
  obs::TraceRecorder rec;
  o.trace_sink = &rec;
  mt::Alg2Stats stats;
  const geom::PolygonSet got = mt::slab_clip(
      f.subject, f.clip, geom::BoolOp::kUnion, f.pool, o, &stats);
  check_partial_report(stats, o.slabs, ErrorCode::kBudgetExceeded);
  check_slab_spans(rec, "alg2.slab", stats);
  // A 1-byte budget rejects the very first arena charge of every slab that
  // does any work at all; this workload spans all slabs.
  EXPECT_EQ(stats.partial.missing_slabs(), o.slabs);
  EXPECT_EQ(got.num_contours(), 0u);
  EXPECT_EQ(budget->used(), 0u);
}

/// Trace sink that cancels a token on the first slab span — a
/// deterministic stand-in for "the client hung up mid-run".
class CancelOnSlabSink : public obs::TraceSink {
 public:
  explicit CancelOnSlabSink(par::CancelToken t) : token_(std::move(t)) {}
  obs::SpanId begin_span(const char* name, obs::Cat, obs::SpanId) override {
    if (std::strcmp(name, "alg2.slab") == 0) token_.cancel();
    return obs::SpanId{next_.fetch_add(1, std::memory_order_relaxed)};
  }
  void end_span(obs::SpanId) override {}
  void span_arg(obs::SpanId, const char*, std::int64_t) override {}
  void add_counter(const char*, std::int64_t) override {}
  void observe(const char*, double) override {}

 private:
  par::CancelToken token_;
  std::atomic<std::uint64_t> next_{1};
};

TEST(Governance, MidRunCancelThrowsWithoutAllowPartial) {
  auto& f = fx();
  mt::Alg2Options o = f.base;
  o.cancel = par::CancelToken::make();
  CancelOnSlabSink sink(o.cancel);
  o.trace_sink = &sink;
  EXPECT_EQ(thrown_code([&] {
              mt::slab_clip(f.subject, f.clip, geom::BoolOp::kUnion, f.pool, o);
            }),
            ErrorCode::kCancelled);
}

TEST(Governance, MidRunCancelYieldsPartialWhenAllowed) {
  auto& f = fx();
  mt::Alg2Options o = f.base;
  o.cancel = par::CancelToken::make();
  CancelOnSlabSink sink(o.cancel);
  o.trace_sink = &sink;
  o.allow_partial = true;
  mt::Alg2Stats stats;
  mt::slab_clip(f.subject, f.clip, geom::BoolOp::kUnion, f.pool, o, &stats);
  check_partial_report(stats, o.slabs, ErrorCode::kCancelled);
}

TEST(Governance, GenerousGovernanceIsInvisible) {
  auto& f = fx();
  const geom::PolygonSet want =
      mt::slab_clip(f.subject, f.clip, geom::BoolOp::kXor, f.pool, f.base);
  mt::Alg2Options o = f.base;
  o.cancel = par::CancelToken::with_deadline(
      par::Deadline::in_ms(10 * 60 * 1000));
  auto budget = std::make_shared<par::ResourceBudget>(1ull << 30);  // 1 GiB
  o.cancel.set_budget(budget);
  mt::Alg2Stats stats;
  const geom::PolygonSet got =
      mt::slab_clip(f.subject, f.clip, geom::BoolOp::kXor, f.pool, o, &stats);
  EXPECT_TRUE(bit_identical(got, want));
  EXPECT_FALSE(stats.partial.partial);
  EXPECT_EQ(stats.degraded_slabs(), 0);
  EXPECT_EQ(budget->used(), 0u);
  EXPECT_FALSE(budget->blown());
  // Charging really happened: the slab arenas alone exceed one granule.
  EXPECT_GE(budget->peak(), par::gov::ScopedCharge::kGranule);
  EXPECT_LE(budget->peak(), budget->limit());
}

// ---- Two sets of polygons (GIS layers) get the same contracts. ----

struct MsFixture {
  par::ThreadPool pool{4};
  geom::PolygonSet a, b;
  mt::Alg2Options base;

  MsFixture() {
    a = data::polygon_field(9001, 60, 100.0, 12);
    b = data::polygon_field(9002, 60, 100.0, 10);
    base.slabs = 4;
  }
};

MsFixture& ms() {
  static MsFixture f;
  return f;
}

TEST(GovernanceMultiset, PreCancelledFailsAtEntry) {
  auto& f = ms();
  mt::Alg2Options o = f.base;
  o.cancel = par::CancelToken::make();
  o.cancel.cancel();
  o.allow_partial = true;  // setup trips still propagate
  EXPECT_EQ(thrown_code([&] {
              mt::slab_clip(f.a, f.b, geom::BoolOp::kIntersection, f.pool, o);
            }),
            ErrorCode::kCancelled);
}

TEST(GovernanceMultiset, TinyBudgetFailsPrecisely) {
  auto& f = ms();
  mt::Alg2Options o = f.base;
  o.cancel = par::CancelToken::make();
  o.cancel.set_budget(std::make_shared<par::ResourceBudget>(1));
  EXPECT_EQ(thrown_code([&] {
              mt::slab_clip(f.a, f.b, geom::BoolOp::kUnion, f.pool, o);
            }),
            ErrorCode::kBudgetExceeded);
}

TEST(GovernanceMultiset, TinyBudgetWithAllowPartialReturnsPartial) {
  auto& f = ms();
  mt::Alg2Options o = f.base;
  o.cancel = par::CancelToken::make();
  auto budget = std::make_shared<par::ResourceBudget>(1);
  o.cancel.set_budget(budget);
  o.allow_partial = true;
  obs::TraceRecorder rec;
  o.trace_sink = &rec;
  mt::Alg2Stats stats;
  mt::slab_clip(f.a, f.b, geom::BoolOp::kUnion, f.pool, o, &stats);
  check_slab_spans(rec, "alg2.slab", stats);
  const mt::PartialReport& p = stats.partial;
  EXPECT_TRUE(p.partial);
  EXPECT_EQ(p.cause, ErrorCode::kBudgetExceeded);
  EXPECT_GE(p.missing_slabs(), 1u);
  EXPECT_EQ(stats.worst_rung(), mt::Rung::kPartialResult);
  for (const auto& r : p.missing) EXPECT_LT(r.y_lo, r.y_hi);
  EXPECT_EQ(budget->used(), 0u);
}

TEST(GovernanceMultiset, GenerousGovernanceIsInvisible) {
  auto& f = ms();
  const geom::PolygonSet want =
      mt::slab_clip(f.a, f.b, geom::BoolOp::kIntersection, f.pool, f.base);
  mt::Alg2Options o = f.base;
  o.cancel = par::CancelToken::with_deadline(
      par::Deadline::in_ms(10 * 60 * 1000));
  auto budget = std::make_shared<par::ResourceBudget>(1ull << 30);
  o.cancel.set_budget(budget);
  mt::Alg2Stats stats;
  const geom::PolygonSet got =
      mt::slab_clip(f.a, f.b, geom::BoolOp::kIntersection, f.pool, o, &stats);
  EXPECT_TRUE(bit_identical(got, want));
  EXPECT_FALSE(stats.partial.partial);
  EXPECT_EQ(stats.degraded_slabs(), 0);
  EXPECT_EQ(budget->used(), 0u);
  EXPECT_GE(budget->peak(), par::gov::ScopedCharge::kGranule);
}

// ---- The psclip::clip facade forwards the whole contract. ----

TEST(GovernanceFacade, GovernedMatchesUngoverned) {
  auto& f = fx();
  const geom::PolygonSet want =
      psclip::clip(f.subject, f.clip, geom::BoolOp::kUnion, Engine::kSlab);
  ClipOptions copts;
  copts.engine = Engine::kSlab;
  copts.cancel = par::CancelToken::with_deadline(
      par::Deadline::in_ms(10 * 60 * 1000));
  copts.cancel.set_budget(std::make_shared<par::ResourceBudget>(1ull << 30));
  mt::PartialReport partial;
  copts.partial = &partial;
  const geom::PolygonSet got =
      psclip::clip(f.subject, f.clip, geom::BoolOp::kUnion, copts);
  EXPECT_TRUE(bit_identical(got, want));
  EXPECT_FALSE(partial.partial);
}

TEST(GovernanceFacade, PreCancelledFailsForEveryEngine) {
  auto& f = fx();
  for (const Engine e :
       {Engine::kAuto, Engine::kVatti, Engine::kMartinez, Engine::kSlab}) {
    ClipOptions copts;
    copts.engine = e;
    copts.cancel = par::CancelToken::make();
    copts.cancel.cancel();
    EXPECT_EQ(thrown_code([&] {
                psclip::clip(f.subject, f.clip, geom::BoolOp::kUnion, copts);
              }),
              ErrorCode::kCancelled)
        << "engine " << static_cast<int>(e);
  }
}

TEST(GovernanceFacade, PartialReportReachesTheCaller) {
  auto& f = fx();
  ClipOptions copts;
  copts.engine = Engine::kSlab;
  copts.cancel = par::CancelToken::make();
  copts.cancel.set_budget(std::make_shared<par::ResourceBudget>(1));
  copts.allow_partial = true;
  mt::PartialReport partial;
  partial.partial = true;  // must be reset by the call
  copts.partial = &partial;
  psclip::clip(f.subject, f.clip, geom::BoolOp::kUnion, copts);
  EXPECT_TRUE(partial.partial);
  EXPECT_EQ(partial.cause, ErrorCode::kBudgetExceeded);
  EXPECT_GE(partial.missing_slabs(), 1u);
}

}  // namespace
}  // namespace psclip
