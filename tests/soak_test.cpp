// Chaos soak for request governance (requires -DPSCLIP_FAULT_INJECTION=ON;
// ctest label "soak").
//
// Every case of the 216-case fuzz corpus is re-run under a pseudo-random
// governance configuration derived from the case seed: a deadline lane
// (none / generous / tight / already-expired), a budget lane (none /
// generous / tight), an optional armed governance fault (kStall or kHog
// from fault::seeded_governance_plan), and the partial-result switch. The
// point is not to predict which condition trips — on a timeshared host
// that is unknowable — but to assert that EVERY reachable outcome keeps
// the contracts of DESIGN.md §11:
//
//   * the run terminates, and when a deadline is armed it terminates
//     within deadline + ε (ε generous enough for sanitizer builds);
//   * the outcome is exactly one of: complete success, a partial result
//     (only when allow_partial), or a precise governance Error — never a
//     mangled kTaskFailure, never a crash;
//   * a complete success is BYTE-IDENTICAL to the ungoverned reference
//     (the only recovery rung governance faults can drive is kRetrySafe,
//     which is bit-equal by construction);
//   * the budget meter balances: used() returns to zero however the run
//     ended, and peak() never exceeds the limit;
//   * after a trip, an ungoverned re-run is byte-identical to the
//     reference — aborted attempts must not poison the threads' reused
//     sweep scratch or any other cross-request state.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "error.hpp"
#include "fuzz_cases.hpp"
#include "mt/algorithm2.hpp"
#include "mt/stats.hpp"
#include "parallel/cancel.hpp"
#include "parallel/fault.hpp"
#include "parallel/thread_pool.hpp"
#include "psclip.hpp"
#include "svc/clip_service.hpp"

namespace psclip {
namespace {

using fuzz::canonical_vertices;
using fuzz::FuzzCase;
using fuzz::Inputs;
using fuzz::make_inputs;
using geom::PolygonSet;

static_assert(par::fault::kEnabled,
              "soak_test requires PSCLIP_FAULT_INJECTION=ON");

constexpr unsigned kSlabs = 6;
// Scheduling slack added to the armed deadline before the wall-clock bound
// is declared violated: checkpoints are cooperative (a stall or one slow
// scanbeam overshoots by design) and sanitizer builds on shared hosts are
// slow. What matters is the order of magnitude: a governance-free run of a
// corpus case is milliseconds, so a run that ignored its deadline for two
// whole seconds is a real containment failure, not noise.
constexpr std::int64_t kSlackMs = 2000;

struct SoakConfig {
  std::int64_t deadline_ms = -1;  // -1 = no deadline
  std::uint64_t budget_bytes = 0;  // 0 = no budget
  bool arm_fault = false;
  bool allow_partial = false;

  [[nodiscard]] std::string describe() const {
    std::string s = "deadline=";
    s += deadline_ms < 0 ? "none" : std::to_string(deadline_ms) + "ms";
    s += " budget=";
    s += budget_bytes == 0 ? "none" : std::to_string(budget_bytes) + "B";
    s += arm_fault ? " fault=armed" : " fault=none";
    s += allow_partial ? " partial=allowed" : " partial=off";
    return s;
  }
};

/// Pseudo-random lane assignment, decorrelated from the corpus seeds the
/// same way the fault planners are (SplitMix64 finalizer).
SoakConfig derive_config(std::uint64_t seed) {
  std::uint64_t z = (seed ^ 0x5ca1ab1edeadbeefull) + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  SoakConfig c;
  switch (z % 4) {
    case 0: c.deadline_ms = -1; break;
    case 1: c.deadline_ms = 10'000; break;  // generous: should never trip
    case 2: c.deadline_ms = 25; break;      // tight: may trip mid-run
    case 3: c.deadline_ms = 0; break;       // expired before entry
  }
  switch ((z >> 8) % 3) {
    case 0: c.budget_bytes = 0; break;
    case 1: c.budget_bytes = 256ull << 20; break;  // generous
    case 2: c.budget_bytes = 128ull << 10; break;  // tight: 2 granules
  }
  c.arm_fault = ((z >> 16) & 1) != 0;
  c.allow_partial = ((z >> 17) & 1) != 0;
  return c;
}

class GovernanceSoak : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(GovernanceSoak, EveryOutcomeKeepsTheContract) {
  const FuzzCase c = GetParam();
  const SoakConfig cfg = derive_config(c.seed);
  const par::fault::Plan plan =
      par::fault::seeded_governance_plan(c.seed, kSlabs);
  SCOPED_TRACE("repro: " + c.repro() + " " + cfg.describe() +
               (cfg.arm_fault
                    ? " plan=" + std::string(par::fault::to_string(plan.site)) +
                          "/" + par::fault::to_string(plan.kind) +
                          " key=" + std::to_string(plan.key)
                    : ""));
  const Inputs in = make_inputs(c);

  static par::ThreadPool pool(4);
  mt::Alg2Options base;
  base.slabs = kSlabs;

  par::fault::disarm();
  const PolygonSet want = mt::slab_clip(in.a, in.b, c.op, pool, base);

  mt::Alg2Options o = base;
  o.cancel = par::CancelToken::make();
  if (cfg.deadline_ms >= 0)
    o.cancel.set_deadline(par::Deadline::in_ms(cfg.deadline_ms));
  std::shared_ptr<par::ResourceBudget> budget;
  if (cfg.budget_bytes != 0) {
    budget = std::make_shared<par::ResourceBudget>(cfg.budget_bytes);
    o.cancel.set_budget(budget);
  }
  o.allow_partial = cfg.allow_partial;
  if (cfg.arm_fault) par::fault::arm(plan);

  enum class Outcome { kSuccess, kPartial, kGovernanceError };
  Outcome outcome = Outcome::kSuccess;
  mt::Alg2Stats stats;
  PolygonSet got;
  ErrorCode err = ErrorCode::kCancelled;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    got = mt::slab_clip(in.a, in.b, c.op, pool, o, &stats);
    if (stats.partial.partial) outcome = Outcome::kPartial;
  } catch (const Error& e) {
    outcome = Outcome::kGovernanceError;
    err = e.code();
  } catch (...) {
    par::fault::disarm();
    FAIL() << "governed run threw something other than psclip::Error";
  }
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  par::fault::disarm();

  // Termination bound: an armed deadline caps the run, cooperatively.
  if (cfg.deadline_ms >= 0)
    EXPECT_LE(elapsed_ms, cfg.deadline_ms + kSlackMs)
        << "run overshot its deadline by more than the cooperative slack";

  // The budget meter balances no matter how the run ended, and peak
  // accounting never admits more than the limit.
  if (budget) {
    EXPECT_EQ(budget->used(), 0u)
        << "charges leaked (unwind or partial path missed a release)";
    EXPECT_LE(budget->peak(), budget->limit());
  }

  switch (outcome) {
    case Outcome::kSuccess:
      // Complete success must be byte-identical: stalls produce no error,
      // hog recovery is kRetrySafe (bit-equal), governance trips never
      // complete silently.
      EXPECT_EQ(canonical_vertices(got), canonical_vertices(want));
      EXPECT_LE(stats.worst_rung(), mt::Rung::kRetrySafe);
      EXPECT_FALSE(stats.partial.partial);
      break;
    case Outcome::kPartial:
      EXPECT_TRUE(cfg.allow_partial)
          << "partial result without the partial contract";
      EXPECT_TRUE(is_governance(stats.partial.cause));
      EXPECT_GE(stats.partial.missing_slabs(), 1u);
      EXPECT_LE(stats.partial.missing_slabs(), kSlabs);
      EXPECT_EQ(stats.worst_rung(), mt::Rung::kPartialResult);
      for (const auto& r : stats.partial.missing) {
        EXPECT_LE(r.first, r.last);
        EXPECT_LT(r.last, kSlabs);
      }
      break;
    case Outcome::kGovernanceError:
      EXPECT_TRUE(is_governance(err))
          << "governed run failed with non-governance code "
          << static_cast<int>(err);
      break;
  }

  if (outcome != Outcome::kSuccess) {
    // Aborted attempts must leave no cross-request debris: pooled worker
    // arenas, scratch, scanbeam schedules all reset. An ungoverned re-run
    // must reproduce the reference bit for bit.
    const PolygonSet again = mt::slab_clip(in.a, in.b, c.op, pool, base);
    EXPECT_EQ(canonical_vertices(again), canonical_vertices(want))
        << "a governance trip polluted state shared across requests";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeded, GovernanceSoak,
                         ::testing::ValuesIn(fuzz::make_cases()));

// Multi-request lane: the single-request contracts above must survive a
// ClipService mixing concurrently-submitted governed requests on one pool,
// with the prepared-contour cache on and off and a governance fault armed
// for some rounds. Per-request isolation is the point — one request's
// deadline trip, budget blow or injected stall must never change another
// request's bytes, and every shared meter must balance at drain.
TEST(ServiceChaosSoak, ConcurrentGovernedRequestsStayIsolated) {
  // Every 8th corpus case keeps the lane's runtime sane under sanitizers
  // while still crossing every shape/degeneracy family.
  const std::vector<FuzzCase> all = fuzz::make_cases();
  std::vector<FuzzCase> cases;
  std::vector<Inputs> inputs;
  for (std::size_t i = 0; i < all.size(); i += 8) {
    cases.push_back(all[i]);
    inputs.push_back(make_inputs(all[i]));
  }

  static par::ThreadPool pool(4);
  par::fault::disarm();
  std::vector<PolygonSet> refs;
  refs.reserve(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ClipOptions copts;
    copts.engine = Engine::kSlab;
    copts.pool = &pool;
    refs.push_back(clip(inputs[i].a, inputs[i].b, cases[i].op, copts));
  }

  for (const bool cache_on : {true, false}) {
    svc::ServiceOptions sopts;
    sopts.enable_cache = cache_on;
    sopts.max_queued = 64;
    auto cache_budget = std::make_shared<par::ResourceBudget>(8ull << 20);
    if (cache_on) sopts.cache.budget = cache_budget;
    svc::ClipService service(pool, sopts);

    constexpr unsigned kRounds = 3;
    constexpr int kClients = 3;
    for (unsigned round = 0; round < kRounds; ++round) {
      // Round 0 runs fault-free; later rounds arm one seeded governance
      // fault (kStall / kHog) any concurrent request may hit.
      const par::fault::Plan plan = par::fault::seeded_governance_plan(
          0x5e71ce + round * 131 + (cache_on ? 7 : 0), 8);
      if (round != 0) par::fault::arm(plan);

      std::atomic<int> contract_failures{0};
      std::vector<std::thread> clients;
      clients.reserve(kClients);
      for (int t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t, round] {
          for (std::size_t i = t; i < cases.size();
               i += static_cast<std::size_t>(kClients)) {
            const SoakConfig cfg = derive_config(
                cases[i].seed ^ (round * 0x9e3779b9ull) ^
                (static_cast<std::uint64_t>(t) << 51));
            svc::ClipRequest req;
            req.subject = inputs[i].a;
            req.clip = inputs[i].b;
            req.op = cases[i].op;
            req.engine = Engine::kSlab;
            req.allow_partial = cfg.allow_partial;
            std::shared_ptr<par::ResourceBudget> budget;
            if (cfg.deadline_ms >= 0 || cfg.budget_bytes != 0) {
              req.cancel = par::CancelToken::make();
              if (cfg.deadline_ms >= 0)
                req.cancel.set_deadline(par::Deadline::in_ms(cfg.deadline_ms));
              if (cfg.budget_bytes != 0) {
                budget =
                    std::make_shared<par::ResourceBudget>(cfg.budget_bytes);
                req.cancel.set_budget(budget);
              }
            }
            try {
              const svc::ClipResult res = service.submit(req);
              if (res.partial.partial) {
                if (!cfg.allow_partial || !is_governance(res.partial.cause)) {
                  contract_failures.fetch_add(1, std::memory_order_relaxed);
                  ADD_FAILURE() << "bad partial: " << cases[i].repro() << " "
                                << cfg.describe();
                }
              } else if (canonical_vertices(res.output) !=
                         canonical_vertices(refs[i])) {
                contract_failures.fetch_add(1, std::memory_order_relaxed);
                ADD_FAILURE()
                    << "a concurrent governed neighbor changed this "
                       "request's bytes: "
                    << cases[i].repro() << " " << cfg.describe();
              }
            } catch (const Error& e) {
              if (!is_governance(e.code())) {
                contract_failures.fetch_add(1, std::memory_order_relaxed);
                ADD_FAILURE() << "non-governance failure "
                              << static_cast<int>(e.code()) << ": "
                              << cases[i].repro() << " " << cfg.describe();
              }
            } catch (...) {
              contract_failures.fetch_add(1, std::memory_order_relaxed);
              ADD_FAILURE() << "threw something other than psclip::Error: "
                            << cases[i].repro();
            }
            // Per-request budget meters balance however the request ended.
            if (budget && budget->used() != 0) {
              contract_failures.fetch_add(1, std::memory_order_relaxed);
              ADD_FAILURE() << "request budget leaked " << budget->used()
                            << "B: " << cases[i].repro() << " "
                            << cfg.describe();
            }
          }
        });
      }
      for (auto& th : clients) th.join();
      par::fault::disarm();
      EXPECT_EQ(contract_failures.load(), 0)
          << "round " << round << " cache=" << cache_on;
    }

    // Service meters balance at drain.
    EXPECT_EQ(service.submitted(),
              service.completed() + service.failed() + service.rejected());
    EXPECT_EQ(service.rejected(), 0u)
        << "the lane was sized to never overflow admission";
    EXPECT_EQ(service.in_flight(), 0u);
    if (cache_on) {
      ASSERT_NE(service.cache(), nullptr);
      EXPECT_FALSE(cache_budget->blown())
          << "the cache's dedicated budget must be governed by eviction";
      EXPECT_EQ(cache_budget->used(), service.cache()->resident_bytes());
    }

    // Post-soak hygiene: an ungoverned resubmission reproduces the
    // reference — tripped neighbors left no cross-request debris behind.
    svc::ClipRequest clean;
    clean.subject = inputs[0].a;
    clean.clip = inputs[0].b;
    clean.op = cases[0].op;
    clean.engine = Engine::kSlab;
    EXPECT_EQ(canonical_vertices(service.submit(clean).output),
              canonical_vertices(refs[0]))
        << "cache=" << cache_on;
  }
}

}  // namespace
}  // namespace psclip
