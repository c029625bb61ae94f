// Cross-request determinism battery for svc::ClipService (DESIGN.md §12).
//
// The service's contract is byte-identity: whatever interleaving the
// admission gate and the pool's slab scheduling produce, every result must
// equal the serial psclip::clip call a direct caller would have made with
// the same inputs, engine and pool. The battery runs the full 216-case
// fuzz corpus through the service from several client threads at once, in
// per-thread randomized order, with the prepared-contour cache on and off,
// and compares every output bit for bit against references computed up
// front on a single thread.

#include "svc/clip_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <future>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "fuzz_cases.hpp"
#include "parallel/thread_pool.hpp"
#include "psclip.hpp"

namespace psclip {
namespace {

using fuzz::FuzzCase;
using fuzz::Inputs;
using geom::PolygonSet;
using svc::ClipRequest;
using svc::ClipResult;
using svc::ClipService;
using svc::ServiceOptions;

bool bit_identical(const PolygonSet& a, const PolygonSet& b) {
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

/// Corpus plus serial references, computed once. References force the slab
/// engine (the only engine the cache and the slab interleaving touch) on
/// the same shared pool the service runs on — slab decomposition derives
/// from pool size, so service results must reproduce these bytes exactly.
struct Corpus {
  par::ThreadPool pool{4};
  std::vector<FuzzCase> cases = fuzz::make_cases();
  std::vector<Inputs> inputs;
  std::vector<PolygonSet> refs;

  Corpus() {
    inputs.reserve(cases.size());
    refs.reserve(cases.size());
    for (const FuzzCase& c : cases) {
      inputs.push_back(fuzz::make_inputs(c));
      ClipOptions copts;
      copts.engine = Engine::kSlab;
      copts.pool = &pool;
      refs.push_back(clip(inputs.back().a, inputs.back().b, c.op, copts));
    }
  }
};

Corpus& corpus() {
  static Corpus c;
  return c;
}

ClipRequest request_for(const Corpus& c, std::size_t i) {
  ClipRequest req;
  req.subject = c.inputs[i].a;
  req.clip = c.inputs[i].b;
  req.op = c.cases[i].op;
  req.engine = Engine::kSlab;
  return req;
}

/// Drive the whole corpus through `service` from `clients` threads, each
/// submitting every case in its own seeded shuffle, and count mismatches.
void run_battery(ClipService& service, int clients, std::uint64_t seed) {
  const Corpus& c = corpus();
  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::size_t> order(c.cases.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::mt19937_64 rng(seed + static_cast<std::uint64_t>(t));
      std::shuffle(order.begin(), order.end(), rng);
      for (const std::size_t i : order) {
        try {
          const ClipResult res = service.submit(request_for(c, i));
          if (!bit_identical(res.output, c.refs[i])) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
            ADD_FAILURE() << "service result diverged from the serial "
                             "reference: "
                          << c.cases[i].repro();
          }
          if (res.partial.partial)
            errors.fetch_add(1, std::memory_order_relaxed);
        } catch (const Error& e) {
          errors.fetch_add(1, std::memory_order_relaxed);
          ADD_FAILURE() << "ungoverned request failed (" << e.what()
                        << "): " << c.cases[i].repro();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(errors.load(), 0);
}

TEST(ServiceBattery, ConcurrentCorpusIsByteIdenticalWithCacheOn) {
  Corpus& c = corpus();
  ServiceOptions opts;
  opts.enable_cache = true;
  ClipService service(c.pool, opts);
  constexpr int kClients = 4;
  run_battery(service, kClients, /*seed=*/424200);
  EXPECT_EQ(service.completed(),
            static_cast<std::uint64_t>(kClients) * c.cases.size());
  EXPECT_EQ(service.failed(), 0u);
  EXPECT_EQ(service.rejected(), 0u);
  ASSERT_NE(service.cache(), nullptr);
  // Four clients replaying one corpus: reuse must actually happen.
  EXPECT_GT(service.cache()->hits(), 0u);
}

TEST(ServiceBattery, ConcurrentCorpusIsByteIdenticalWithCacheOff) {
  Corpus& c = corpus();
  ServiceOptions opts;
  opts.enable_cache = false;
  ClipService service(c.pool, opts);
  EXPECT_EQ(service.cache(), nullptr);
  run_battery(service, /*clients=*/2, /*seed=*/17);
}

TEST(ServiceBattery, AsyncFuturesMatchTheSameReferences) {
  Corpus& c = corpus();
  ServiceOptions opts;
  opts.max_queued = 256;  // hold the whole burst without backpressure
  ClipService service(c.pool, opts);
  constexpr std::size_t kBurst = 48;
  std::vector<std::future<ClipResult>> futs;
  futs.reserve(kBurst);
  for (std::size_t i = 0; i < kBurst; ++i)
    futs.push_back(service.submit_async(request_for(c, i * 4)));
  for (std::size_t i = 0; i < kBurst; ++i) {
    const ClipResult res = futs[i].get();
    EXPECT_TRUE(bit_identical(res.output, c.refs[i * 4]))
        << c.cases[i * 4].repro();
  }
  EXPECT_EQ(service.completed(), kBurst);
}

TEST(ServiceBattery, MixedSyncAndAsyncClientsInterleaveSafely) {
  Corpus& c = corpus();
  ClipService service(c.pool, {});
  std::atomic<int> failures{0};
  std::thread sync_client([&] {
    for (std::size_t i = 0; i < c.cases.size(); i += 3) {
      const ClipResult res = service.submit(request_for(c, i));
      if (!bit_identical(res.output, c.refs[i]))
        failures.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 1; i < c.cases.size(); i += 9) {
    auto fut = service.submit_async(request_for(c, i));
    if (!bit_identical(fut.get().output, c.refs[i]))
      failures.fetch_add(1, std::memory_order_relaxed);
  }
  sync_client.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServiceBattery, BatchSharesOnePreparePassAcrossRequests) {
  Corpus& c = corpus();
  ServiceOptions opts;
  opts.enable_cache = true;
  ClipService service(c.pool, opts);

  // Many subjects against one shared clip layer: the batch contract is
  // that the common layer is prepared once and reused by every pair.
  constexpr std::size_t kPairs = 6;
  const PolygonSet& shared_clip = c.inputs[0].b;
  std::vector<ClipRequest> batch;
  std::vector<PolygonSet> want;
  for (std::size_t i = 0; i < kPairs; ++i) {
    ClipRequest req;
    req.subject = c.inputs[i * 7].a;
    req.clip = shared_clip;
    req.op = geom::BoolOp::kIntersection;
    req.engine = Engine::kSlab;
    batch.push_back(req);
    ClipOptions copts;
    copts.engine = Engine::kSlab;
    copts.pool = &c.pool;
    want.push_back(
        clip(req.subject, req.clip, req.op, copts));
  }

  const std::vector<ClipResult> got = service.submit_batch(batch);
  ASSERT_EQ(got.size(), kPairs);
  for (std::size_t i = 0; i < kPairs; ++i)
    EXPECT_TRUE(bit_identical(got[i].output, want[i])) << "pair " << i;

  // The shared clip layer misses once per contour and hits on every later
  // pair: at least (kPairs - 1) × its contour count hits.
  ASSERT_NE(service.cache(), nullptr);
  EXPECT_GE(service.cache()->hits(),
            (kPairs - 1) * shared_clip.num_contours());
}

TEST(ServiceBattery, BatchWithCacheOffStillSharesWithinTheBatch) {
  Corpus& c = corpus();
  ServiceOptions opts;
  opts.enable_cache = false;
  ClipService service(c.pool, opts);
  std::vector<ClipRequest> batch;
  for (std::size_t i = 0; i < 4; ++i) batch.push_back(request_for(c, i * 11));
  const std::vector<ClipResult> got = service.submit_batch(batch);
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_TRUE(bit_identical(got[i].output, c.refs[i * 11])) << "pair " << i;
}

TEST(ServiceBattery, MultisetRequestsMatchTheDirectEntryPoint) {
  Corpus& c = corpus();
  ClipService service(c.pool, {});
  for (const std::size_t i : {5u, 40u, 111u}) {
    const PolygonSet want = mt::multiset_clip(c.inputs[i].a, c.inputs[i].b,
                                              c.cases[i].op, c.pool);
    ClipRequest req = request_for(c, i);
    req.multiset = true;
    const ClipResult res = service.submit(req);
    EXPECT_TRUE(bit_identical(res.output, want)) << c.cases[i].repro();
  }
}

TEST(ServiceBattery, AutoEngineRequestsMatchTheFacade) {
  // Small corpus inputs resolve kAuto to the sequential clipper on both
  // sides; the service must not second-guess the shared resolution.
  Corpus& c = corpus();
  ClipService service(c.pool, {});
  for (const std::size_t i : {0u, 60u, 190u}) {
    ClipOptions copts;
    copts.pool = &c.pool;
    const PolygonSet want =
        clip(c.inputs[i].a, c.inputs[i].b, c.cases[i].op, copts);
    ClipRequest req = request_for(c, i);
    req.engine = Engine::kAuto;
    EXPECT_TRUE(bit_identical(service.submit(req).output, want))
        << c.cases[i].repro();
  }
}

}  // namespace
}  // namespace psclip
