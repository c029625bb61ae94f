// Fault-injection fuzz lane (requires -DPSCLIP_FAULT_INJECTION=ON).
//
// Reuses the exact 216-case corpus of the cross-engine differential
// harness (tests/fuzz_cases.hpp). For every case: run Algorithm 2 clean,
// then arm a single-shot fault plan derived from the case seed
// (fault::seeded_plan picks site, kind and slab key pseudo-randomly) and
// run again. A single-shot fault is always recovered on the kRetrySafe
// rung — the same slab cut swept on a fresh scratch, bit-equal to the
// healthy path — so the faulted run must be BYTE-IDENTICAL to the clean
// run, not merely area-equal, on every corpus case. Degradation
// accounting must show nothing deeper than kRetrySafe.
//
// Some seeded plans target a slab/site combination the case never reaches
// (an out-of-range key). Those plans simply never fire; the identity
// requirement holds either way. FaultFuzzTally runs every case's plan in
// one process, prints how many fired per site and fails when the count
// falls below a floor, so a generator regression that silences the lane
// cannot pass unseen (ctest runs each SingleShotFaultIsInvisible case in a
// process of its own, so no per-case counter could see the total).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>

#include "fuzz_cases.hpp"
#include "mt/algorithm2.hpp"
#include "mt/stats.hpp"
#include "parallel/cancel.hpp"
#include "parallel/fault.hpp"
#include "parallel/thread_pool.hpp"

namespace psclip {
namespace {

using fuzz::canonical_vertices;
using fuzz::FuzzCase;
using fuzz::Inputs;
using fuzz::make_inputs;
using geom::PolygonSet;

static_assert(par::fault::kEnabled,
              "fault_fuzz_test requires PSCLIP_FAULT_INJECTION=ON");

constexpr unsigned kSlabs = 6;

class FaultFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FaultFuzz, SingleShotFaultIsInvisible) {
  const FuzzCase c = GetParam();
  const par::fault::Plan plan = par::fault::seeded_plan(c.seed, kSlabs);
  SCOPED_TRACE("repro: " + c.repro() +
               " fault=" + par::fault::to_string(plan.site) + "/" +
               par::fault::to_string(plan.kind) +
               " key=" + std::to_string(plan.key));
  const Inputs in = make_inputs(c);

  static par::ThreadPool pool(4);
  mt::Alg2Options o;
  o.slabs = kSlabs;

  par::fault::disarm();
  const PolygonSet want = mt::slab_clip(in.a, in.b, c.op, pool, o);

  par::fault::arm(plan);
  mt::Alg2Stats stats;
  PolygonSet got;
  try {
    got = mt::slab_clip(in.a, in.b, c.op, pool, o, &stats);
  } catch (...) {
    par::fault::disarm();
    throw;
  }
  const std::uint64_t fired = par::fault::fired();
  par::fault::disarm();

  // Byte identity, fired or not: a fault that never fires trivially
  // preserves the output, one that does must be absorbed at kRetrySafe.
  EXPECT_EQ(canonical_vertices(got), canonical_vertices(want))
      << "single-shot fault changed the output (fired=" << fired << ")";
  EXPECT_LE(stats.worst_rung(), mt::Rung::kRetrySafe)
      << "single-shot fault drove a slab below the safe-retry rung";
  if (fired == 0) {
    EXPECT_EQ(stats.degraded_slabs(), 0);
  } else {
    EXPECT_GE(stats.degraded_slabs(), 1)
        << "a fault fired but no degradation was recorded";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeded, FaultFuzz,
                         ::testing::ValuesIn(fuzz::make_cases()));

/// Seeded plans of the 216-case corpus that fire, measured when this test
/// was written: every one (vatti-sweep 49/49, arena 55/55, slab-task
/// 49/49, slab-cut 63/63). The floor is half of that.
constexpr std::uint64_t kMinFiredPlans = 108;

TEST(FaultFuzzTally, SeededPlansFire) {
  static par::ThreadPool pool(4);
  mt::Alg2Options o;
  o.slabs = kSlabs;
  std::array<std::uint64_t, par::fault::kSiteCount> fired{}, total{};
  for (const FuzzCase& c : fuzz::make_cases()) {
    const par::fault::Plan plan = par::fault::seeded_plan(c.seed, kSlabs);
    const Inputs in = make_inputs(c);
    par::fault::arm(plan);
    try {
      (void)mt::slab_clip(in.a, in.b, c.op, pool, o);
    } catch (...) {
      par::fault::disarm();
      throw;
    }
    const auto site = static_cast<std::size_t>(plan.site);
    ++total[site];
    fired[site] += par::fault::fired() > 0 ? 1 : 0;
    par::fault::disarm();
  }
  std::uint64_t all = 0;
  for (int s = 0; s < par::fault::kSiteCount; ++s) {
    std::printf("fault-fuzz %-12s fired %llu of %llu plans\n",
                par::fault::to_string(static_cast<par::fault::Site>(s)),
                static_cast<unsigned long long>(fired[s]),
                static_cast<unsigned long long>(total[s]));
    all += fired[s];
  }
  EXPECT_GE(all, kMinFiredPlans) << "seeded fault plans stopped firing";
}

// ---- Governance-kind lanes (kStall / kHog). ----
//
// These kinds deliberately violate the original lane's "fired ⟹ degraded"
// invariant — a stall is a slow site, not a broken one — so they get their
// own lanes with their own invariants:
//   * a stall with no deadline armed is completely invisible: byte-equal
//     output, zero degradation (nothing threw, nothing retried);
//   * an allocation hog under a finite budget is a *transient* failure —
//     the spike is released with the attempt, the sticky flag stays clear,
//     and the ladder recovers on kRetrySafe with byte-identical output.

class GovernanceFaultFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(GovernanceFaultFuzz, StallWithoutDeadlineIsInvisible) {
  const FuzzCase c = GetParam();
  par::fault::Plan plan = par::fault::seeded_governance_plan(c.seed, kSlabs);
  plan.kind = par::fault::Kind::kStall;
  plan.magnitude = 1;  // 1 ms keeps 216 cases fast
  SCOPED_TRACE("repro: " + c.repro() +
               " stall@" + par::fault::to_string(plan.site) +
               " key=" + std::to_string(plan.key));
  const Inputs in = make_inputs(c);

  static par::ThreadPool pool(4);
  mt::Alg2Options o;
  o.slabs = kSlabs;

  par::fault::disarm();
  const PolygonSet want = mt::slab_clip(in.a, in.b, c.op, pool, o);

  par::fault::arm(plan);
  mt::Alg2Stats stats;
  PolygonSet got;
  try {
    got = mt::slab_clip(in.a, in.b, c.op, pool, o, &stats);
  } catch (...) {
    par::fault::disarm();
    throw;
  }
  par::fault::disarm();

  EXPECT_EQ(canonical_vertices(got), canonical_vertices(want));
  EXPECT_EQ(stats.degraded_slabs(), 0)
      << "a stall is slow, not broken: nothing may throw or retry";
  EXPECT_FALSE(stats.partial.partial);
}

TEST_P(GovernanceFaultFuzz, HogUnderBudgetRecoversByteIdentical) {
  const FuzzCase c = GetParam();
  par::fault::Plan plan = par::fault::seeded_governance_plan(c.seed, kSlabs);
  plan.kind = par::fault::Kind::kHog;
  plan.magnitude = 0;  // default 1 GiB spike — never fits the budget below
  SCOPED_TRACE("repro: " + c.repro() +
               " hog@" + par::fault::to_string(plan.site) +
               " key=" + std::to_string(plan.key));
  const Inputs in = make_inputs(c);

  static par::ThreadPool pool(4);
  mt::Alg2Options o;
  o.slabs = kSlabs;

  par::fault::disarm();
  const PolygonSet want = mt::slab_clip(in.a, in.b, c.op, pool, o);

  // Generous for the corpus's real footprint, far smaller than the spike.
  auto budget = std::make_shared<par::ResourceBudget>(256ull << 20);
  o.cancel = par::CancelToken::make();
  o.cancel.set_budget(budget);

  par::fault::arm(plan);
  mt::Alg2Stats stats;
  PolygonSet got;
  try {
    got = mt::slab_clip(in.a, in.b, c.op, pool, o, &stats);
  } catch (...) {
    par::fault::disarm();
    throw;
  }
  const std::uint64_t fired = par::fault::fired();
  par::fault::disarm();

  EXPECT_EQ(canonical_vertices(got), canonical_vertices(want))
      << "hog recovery changed the output (fired=" << fired << ")";
  EXPECT_LE(stats.worst_rung(), mt::Rung::kRetrySafe)
      << "a transient spike must retry, not abandon the slab";
  EXPECT_FALSE(stats.partial.partial);
  EXPECT_FALSE(budget->blown())
      << "a released spike must not leave the budget sticky-blown";
  EXPECT_EQ(budget->used(), 0u);
  if (fired > 0) {
    EXPECT_GE(stats.degraded_slabs(), 1)
        << "a hog fired against a finite budget but nothing degraded";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeded, GovernanceFaultFuzz,
                         ::testing::ValuesIn(fuzz::make_cases()));

}  // namespace
}  // namespace psclip
