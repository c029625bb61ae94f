// Fault-injection matrix for the degradation ladder (requires a build with
// -DPSCLIP_FAULT_INJECTION=ON; the tests are not registered otherwise).
//
// Each case arms one deterministic fault plan — a site (slab cut, Vatti
// sweep, arena borrow, slab-task wrapper), a kind (throw, bad_alloc,
// silent output corruption), a slab key, and a fire count — then runs
// slab_clip on a polygon pair and on two GIS-style layers and asserts
// BOTH halves of the isolation contract:
//
//   1. recovery: the output matches the unfaulted run — byte-identical
//      when recovery happens on the kRetrySafe rung (slab_clip sweeps the
//      same cut of the shared bound table on a fresh scratch), area-equal
//      on the whole-input rung (one sequential clip, in vatti_clip's
//      contour order instead of the welded slab order);
//   2. accounting: Alg2Stats::degradation records exactly the expected
//      rung, attempt count, and cause taxonomy code for the faulted slab,
//      and kHealthy everywhere else.
//
// Rung determinism: one fault firing aborts exactly one attempt. Both
// per-slab rungs of slab_clip cut the slab (kSlabCut) and sweep it
// (kVattiSweep), so a plan at either site with fire_count=k lands the slab
// exactly k rungs down, and two firings exhaust the per-slab ladder. The
// arena is only borrowed on the healthy rung, which pins its deepest
// reachable rung — the matrix encodes that reachability.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "geom/polygon.hpp"
#include "mt/algorithm2.hpp"
#include "mt/stats.hpp"
#include "parallel/fault.hpp"
#include "parallel/thread_pool.hpp"
#include "test_support.hpp"

namespace psclip {
namespace {

using geom::BoolOp;
using geom::PolygonSet;
using mt::Rung;
using par::fault::Kind;
using par::fault::Plan;
using par::fault::Site;

static_assert(par::fault::kEnabled,
              "fault_injection_test requires PSCLIP_FAULT_INJECTION=ON");

/// RAII disarm so a failing assertion cannot leak an armed plan into the
/// next test.
struct ArmedPlan {
  explicit ArmedPlan(const Plan& p) { par::fault::arm(p); }
  ~ArmedPlan() { par::fault::disarm(); }
};

void expect_identical(const PolygonSet& got, const PolygonSet& want,
                      const std::string& what) {
  ASSERT_EQ(got.num_contours(), want.num_contours()) << what;
  for (std::size_t i = 0; i < got.contours.size(); ++i) {
    ASSERT_EQ(got.contours[i].pts.size(), want.contours[i].pts.size())
        << what << " contour " << i;
    for (std::size_t j = 0; j < got.contours[i].pts.size(); ++j) {
      EXPECT_EQ(got.contours[i][j].x, want.contours[i][j].x)
          << what << " contour " << i << " vertex " << j;
      EXPECT_EQ(got.contours[i][j].y, want.contours[i][j].y)
          << what << " contour " << i << " vertex " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// slab_clip matrix
// ---------------------------------------------------------------------------

struct SlabMatrixCase {
  const char* name;
  Site site;
  Kind kind;
  std::uint64_t fire_count;
  Rung want_rung;      ///< rung of the faulted slab
  ErrorCode want_cause;
  bool byte_identical;  ///< deeper rungs are area-equal, not bit-equal
};

// The targeted slab. With slabs=4 on the blob pair every slab has seeds
// and minima, so every rung's fault site is actually reached.
constexpr std::uint64_t kSlab = 1;

/// The matrix's inputs: a blob pair and two polygon-field layers (two
/// sets of polygons, the GIS overlay shape).
struct FaultInput {
  const char* name;
  PolygonSet a, b;
};

const std::vector<FaultInput>& fault_inputs() {
  static const std::vector<FaultInput> inputs = [] {
    const auto pair = data::synthetic_pair(7, 48);
    return std::vector<FaultInput>{
        {"pair", pair.subject, pair.clip},
        {"layers", data::polygon_field(501, 24, 100.0, 8),
         data::polygon_field(502, 24, 100.0, 7)}};
  }();
  return inputs;
}

const SlabMatrixCase kSlabMatrix[] = {
    // One firing at each site -> first retry succeeds, byte-identical.
    {"vatti-throw-1", Site::kVattiSweep, Kind::kThrow, 1, Rung::kRetrySafe,
     ErrorCode::kInjected, true},
    {"vatti-badalloc-1", Site::kVattiSweep, Kind::kBadAlloc, 1,
     Rung::kRetrySafe, ErrorCode::kResource, true},
    {"vatti-corrupt-1", Site::kVattiSweep, Kind::kCorrupt, 1, Rung::kRetrySafe,
     ErrorCode::kNonFinite, true},
    // The slab-cut site (attempt entry; corrupt poisons the cut, caught
    // before the sweep).
    {"slabcut-throw-1", Site::kSlabCut, Kind::kThrow, 1, Rung::kRetrySafe,
     ErrorCode::kInjected, true},
    {"slabcut-badalloc-1", Site::kSlabCut, Kind::kBadAlloc, 1,
     Rung::kRetrySafe, ErrorCode::kResource, true},
    {"slabcut-corrupt-1", Site::kSlabCut, Kind::kCorrupt, 1, Rung::kRetrySafe,
     ErrorCode::kNonFinite, true},
    {"arena-throw-1", Site::kArena, Kind::kThrow, 1, Rung::kRetrySafe,
     ErrorCode::kInjected, true},
    {"arena-corrupt-1", Site::kArena, Kind::kCorrupt, 1, Rung::kRetrySafe,
     ErrorCode::kNonFinite, true},
    // The arena is only borrowed on the healthy rung.
    {"arena-throw-many", Site::kArena, Kind::kThrow, 100, Rung::kRetrySafe,
     ErrorCode::kInjected, true},
    // Both per-slab rungs cut and sweep, so two firings at either site
    // exhaust the per-slab ladder and force the whole-input sequential
    // fallback (which runs keyless, out of the plan's reach).
    {"vatti-throw-2", Site::kVattiSweep, Kind::kThrow, 2, Rung::kWholeInput,
     ErrorCode::kInjected, false},
    {"slabcut-throw-2", Site::kSlabCut, Kind::kThrow, 2, Rung::kWholeInput,
     ErrorCode::kInjected, false},
    {"vatti-throw-whole-input", Site::kVattiSweep, Kind::kThrow, 100,
     Rung::kWholeInput, ErrorCode::kInjected, false},
    {"slabcut-throw-whole-input", Site::kSlabCut, Kind::kThrow, 100,
     Rung::kWholeInput, ErrorCode::kInjected, false},
};

/// One matrix case on one input.
void expect_isolated(const SlabMatrixCase& c, const FaultInput& in,
                     par::ThreadPool& pool) {
  SCOPED_TRACE(in.name);
  mt::Alg2Options o;
  o.slabs = 4;

  par::fault::disarm();
  mt::Alg2Stats base_stats;
  const PolygonSet want =
      mt::slab_clip(in.a, in.b, BoolOp::kIntersection, pool, o, &base_stats);
  ASSERT_EQ(base_stats.degraded_slabs(), 0);
  const std::size_t nslabs = base_stats.degradation.size();
  ASSERT_GT(nslabs, kSlab);

  Plan p;
  p.site = c.site;
  p.kind = c.kind;
  p.key = kSlab;
  p.fire_count = c.fire_count;
  ArmedPlan armed(p);

  mt::Alg2Stats stats;
  const PolygonSet got =
      mt::slab_clip(in.a, in.b, BoolOp::kIntersection, pool, o, &stats);
  EXPECT_GT(par::fault::fired(), 0u) << "plan never fired";

  // Accounting: the faulted slab reports exactly the expected rung and
  // cause; under the whole-input fallback every slab reports kWholeInput.
  ASSERT_EQ(stats.degradation.size(), nslabs);
  const mt::DegradationReport& rep = stats.degradation[kSlab];
  EXPECT_EQ(rep.rung, c.want_rung)
      << "got rung " << mt::to_string(rep.rung) << ": " << rep.message;
  EXPECT_EQ(rep.cause, c.want_cause) << rep.message;
  EXPECT_FALSE(rep.message.empty());
  if (c.want_rung != Rung::kWholeInput) {
    // One attempt per rung walked: a slab recovering on rung r made r
    // failed attempts plus the successful one.
    EXPECT_EQ(rep.attempts, static_cast<std::uint32_t>(c.want_rung) + 1);
    for (std::size_t t = 0; t < nslabs; ++t) {
      if (t == kSlab) continue;
      EXPECT_EQ(stats.degradation[t].rung, Rung::kHealthy)
          << "fault leaked into slab " << t << ": "
          << stats.degradation[t].message;
    }
  } else {
    for (std::size_t t = 0; t < nslabs; ++t)
      EXPECT_EQ(stats.degradation[t].rung, Rung::kWholeInput) << "slab " << t;
  }
  EXPECT_EQ(stats.worst_rung(), c.want_rung);

  // Recovery: byte-identity on the safe-retry rung, area identity beyond.
  if (c.byte_identical) {
    expect_identical(got, want, c.name);
  } else {
    EXPECT_TRUE(test::areas_match(geom::signed_area(got),
                                  geom::signed_area(want), 1e-6))
        << "faulted=" << geom::signed_area(got)
        << " unfaulted=" << geom::signed_area(want);
  }
}

class SlabFaultMatrix : public ::testing::TestWithParam<SlabMatrixCase> {};

TEST_P(SlabFaultMatrix, SingleSlabFaultIsIsolated) {
  const SlabMatrixCase c = GetParam();
  SCOPED_TRACE(c.name);
  par::ThreadPool pool(4);
  for (const FaultInput& in : fault_inputs()) expect_isolated(c, in, pool);
}

INSTANTIATE_TEST_SUITE_P(Matrix, SlabFaultMatrix,
                         ::testing::ValuesIn(kSlabMatrix),
                         [](const auto& info) {
                           std::string n = info.param.name;
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

// A fault in the slab task wrapper kills the slab task before its ladder
// runs; the caller must recover the lost slab on the safe-retry rung with
// byte-identical output. (Sibling slabs parallel_for skipped after the
// failure are recovered the same way — also bit-identical.)
TEST(SlabFaultInjection, SlabTaskFaultRecoversOnCaller) {
  const auto pair = data::synthetic_pair(11, 48);
  par::ThreadPool pool(4);
  mt::Alg2Options o;
  o.slabs = 4;

  par::fault::disarm();
  const PolygonSet want =
      mt::slab_clip(pair.subject, pair.clip, BoolOp::kUnion, pool, o);

  Plan p;
  p.site = Site::kSlabTask;
  p.kind = Kind::kThrow;
  p.key = kSlab;  // the wrapper keys by slab index
  p.fire_count = 1;
  ArmedPlan armed(p);

  mt::Alg2Stats stats;
  const PolygonSet got =
      mt::slab_clip(pair.subject, pair.clip, BoolOp::kUnion, pool, o, &stats);
  EXPECT_EQ(par::fault::fired(), 1u);

  ASSERT_GT(stats.degradation.size(), kSlab);
  EXPECT_EQ(stats.degradation[kSlab].rung, Rung::kRetrySafe)
      << stats.degradation[kSlab].message;
  EXPECT_EQ(stats.degradation[kSlab].cause, ErrorCode::kInjected);
  // Slabs skipped after the failure also land on kRetrySafe;
  // nothing may fall deeper than that.
  for (const auto& rep : stats.degradation)
    EXPECT_LE(rep.rung, Rung::kRetrySafe) << rep.message;

  expect_identical(got, want, "slab-task fault");
}

// Unkeyed unbounded plan: every slab fails on every rung AND the
// whole-input fallback itself faults — nothing can produce output, so the
// error must propagate rather than return garbage.
TEST(SlabFaultInjection, UnboundedAnyKeyFaultPropagates) {
  const auto pair = data::synthetic_pair(17, 40);
  par::ThreadPool pool(4);
  mt::Alg2Options o;
  o.slabs = 4;

  Plan p;
  p.site = Site::kVattiSweep;
  p.kind = Kind::kThrow;
  p.key = par::fault::kAnyKey;
  p.fire_count = ~std::uint64_t{0};
  ArmedPlan armed(p);

  EXPECT_THROW(
      mt::slab_clip(pair.subject, pair.clip, BoolOp::kIntersection, pool, o),
      Error);
}

}  // namespace
}  // namespace psclip
