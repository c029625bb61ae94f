// Fairness and governance regressions for svc::ClipService.
//
// Deterministic by construction, not by sleeping: the "large request in
// flight" condition is manufactured with a trace sink that blocks exactly
// one of the large request's slab tasks on a latch (the same sink
// technique governance_test uses to cancel mid-slab). The blocked task is
// *running* — on a pool worker or on the large request's own caller, never
// on another request's caller — so the large request provably cannot
// finish until the test releases it, while the small request's caller, the
// pool's remaining workers and the admission gate stay live.

#include "svc/clip_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <thread>

#include "data/synthetic.hpp"
#include "obs/trace.hpp"
#include "parallel/cancel.hpp"
#include "parallel/thread_pool.hpp"
#include "psclip.hpp"

namespace psclip {
namespace {

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
  ADD_FAILURE() << "expected an Error, none thrown";
  return ErrorCode::kTaskFailure;
}

/// Trace sink that parks the FIRST alg2.slab task it sees on a latch.
/// entered() becomes ready once the task is parked; release() lets it run.
class BlockOneSlabSink final : public obs::TraceSink {
 public:
  obs::SpanId begin_span(const char* name, obs::Cat,
                         obs::SpanId) override {
    if (std::strcmp(name, "alg2.slab") == 0 &&
        !tripped_.exchange(true, std::memory_order_acq_rel)) {
      entered_.set_value();
      std::unique_lock lk(mu_);
      cv_.wait(lk, [this] { return released_; });
    }
    return obs::SpanId{next_.fetch_add(1, std::memory_order_relaxed)};
  }
  void end_span(obs::SpanId) override {}
  void span_arg(obs::SpanId, const char*, std::int64_t) override {}
  void add_counter(const char*, std::int64_t) override {}
  void observe(const char*, double) override {}

  [[nodiscard]] std::future<void> entered() { return entered_.get_future(); }
  void release() {
    {
      std::lock_guard lk(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::atomic<bool> tripped_{false};
  std::atomic<std::uint64_t> next_{1};
  std::promise<void> entered_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

struct Fixture {
  par::ThreadPool pool{4};
  PolygonSet big_subject, big_clip;    // enough slabs to park one and go on
  PolygonSet small_subject, small_clip;
  PolygonSet big_ref, small_ref;

  Fixture() {
    const auto big = data::synthetic_pair(61, 600);
    big_subject = big.subject;
    big_clip = big.clip;
    const auto small = data::synthetic_pair(7, 40);
    small_subject = small.subject;
    small_clip = small.clip;
    ClipOptions copts;
    copts.engine = Engine::kSlab;
    copts.pool = &pool;
    big_ref = clip(big_subject, big_clip, geom::BoolOp::kUnion, copts);
    small_ref = clip(small_subject, small_clip, geom::BoolOp::kUnion, copts);
  }

  [[nodiscard]] ClipRequest big_request(obs::TraceSink* sink = nullptr) const {
    ClipRequest r;
    r.subject = big_subject;
    r.clip = big_clip;
    r.op = geom::BoolOp::kUnion;
    r.engine = Engine::kSlab;
    r.trace_sink = sink;
    return r;
  }
  [[nodiscard]] ClipRequest small_request() const {
    ClipRequest r;
    r.subject = small_subject;
    r.clip = small_clip;
    r.op = geom::BoolOp::kUnion;
    r.engine = Engine::kSlab;
    return r;
  }
};

Fixture& fx() {
  static Fixture f;
  return f;
}

TEST(Fairness, SmallRequestFinishesWhileLargeRequestOccupiesTheService) {
  auto& f = fx();
  ClipService service(f.pool, {});

  BlockOneSlabSink sink;
  auto entered = sink.entered();
  ClipResult big_res;
  std::thread big_client(
      [&] { big_res = service.submit(f.big_request(&sink)); });
  // The large request now provably holds a pool worker hostage.
  entered.wait();

  // The small request must run to completion on the remaining capacity —
  // its caller drives its own slabs beside the parked request's —
  // within a deadline generous for sanitizer builds yet far below "after
  // the big request" (which never finishes until released below).
  ClipRequest small = f.small_request();
  small.cancel = par::CancelToken::with_deadline(par::Deadline::in_ms(30'000));
  const ClipResult small_res = service.submit(small);
  EXPECT_TRUE(bit_identical(small_res.output, f.small_ref));
  EXPECT_FALSE(small_res.partial.partial);

  sink.release();
  big_client.join();
  EXPECT_TRUE(bit_identical(big_res.output, f.big_ref))
      << "parking a slab mid-run must not change the large request's bytes";
  EXPECT_EQ(service.completed(), 2u);
  EXPECT_EQ(service.failed(), 0u);
}

TEST(Fairness, PreTrippedTokensFailFastWithPreciseCodesAndFreeTheirSlots) {
  auto& f = fx();
  ServiceOptions opts;
  opts.max_in_flight = 1;  // a leaked slot would wedge the follow-up submit
  opts.max_queued = 1;
  ClipService service(f.pool, opts);

  ClipRequest cancelled = f.small_request();
  cancelled.cancel = par::CancelToken::make();
  cancelled.cancel.cancel();
  EXPECT_EQ(thrown_code([&] { service.submit(cancelled); }),
            ErrorCode::kCancelled);

  ClipRequest expired = f.small_request();
  expired.cancel = par::CancelToken::with_deadline(
      par::Deadline(par::Deadline::Clock::now()));
  EXPECT_EQ(thrown_code([&] { service.submit(expired); }),
            ErrorCode::kDeadlineExceeded);

  EXPECT_EQ(service.failed(), 2u);
  EXPECT_EQ(service.in_flight(), 0u) << "failed requests leaked gate slots";
  const ClipResult ok = service.submit(f.small_request());
  EXPECT_TRUE(bit_identical(ok.output, f.small_ref));
}

TEST(Fairness, AdmissionOverflowRejectsImmediatelyInsteadOfHanging) {
  auto& f = fx();
  ServiceOptions opts;
  opts.max_in_flight = 1;
  opts.max_queued = 0;  // no waiting line at all
  ClipService service(f.pool, opts);

  BlockOneSlabSink sink;
  auto entered = sink.entered();
  ClipResult big_res;
  std::thread big_client(
      [&] { big_res = service.submit(f.big_request(&sink)); });
  entered.wait();

  // Capacity is genuinely exhausted and no queueing is allowed: the
  // overload answer is a synchronous kResource, never a hang.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(thrown_code([&] { service.submit(f.small_request()); }),
            ErrorCode::kResource);
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 10) << "rejection must not wait for the slot";
  EXPECT_EQ(service.rejected(), 1u);

  sink.release();
  big_client.join();
  EXPECT_TRUE(bit_identical(big_res.output, f.big_ref));
  // With the slot free again the same request is admitted.
  EXPECT_TRUE(
      bit_identical(service.submit(f.small_request()).output, f.small_ref));
}

TEST(Fairness, DeadlineWhileWaitingAtAdmissionSurfacesAsDeadlineNotResource) {
  auto& f = fx();
  ServiceOptions opts;
  opts.max_in_flight = 1;
  opts.max_queued = 2;  // a waiting line exists, so this request queues
  ClipService service(f.pool, opts);

  BlockOneSlabSink sink;
  auto entered = sink.entered();
  ClipResult big_res;
  std::thread big_client(
      [&] { big_res = service.submit(f.big_request(&sink)); });
  entered.wait();

  ClipRequest starved = f.small_request();
  starved.cancel =
      par::CancelToken::with_deadline(par::Deadline::in_ms(100));
  // The slot never frees while the sink holds the big request, so the
  // queued request's own governance must cut the wait with the precise
  // code — queueing does not suspend a request's deadline.
  EXPECT_EQ(thrown_code([&] { service.submit(starved); }),
            ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(service.in_flight(), 1u) << "only the big request holds a slot";

  sink.release();
  big_client.join();
  EXPECT_TRUE(bit_identical(big_res.output, f.big_ref));
}

TEST(Fairness, AsyncBackpressureRejectsTheOverflowingSubmission) {
  auto& f = fx();
  ServiceOptions opts;
  opts.max_in_flight = 1;
  opts.max_queued = 1;
  ClipService service(f.pool, opts);

  BlockOneSlabSink sink;
  auto entered = sink.entered();
  std::future<ClipResult> big_fut = service.submit_async(f.big_request(&sink));
  entered.wait();  // dispatcher is executing the big request; queue empty

  std::future<ClipResult> queued_fut =
      service.submit_async(f.small_request());  // fills the waiting line
  EXPECT_EQ(thrown_code([&] { service.submit_async(f.small_request()); }),
            ErrorCode::kResource)
      << "the submission past the waiting line must be rejected "
         "synchronously, not parked in an unbounded queue";
  EXPECT_EQ(service.rejected(), 1u);

  sink.release();
  EXPECT_TRUE(bit_identical(big_fut.get().output, f.big_ref));
  EXPECT_TRUE(bit_identical(queued_fut.get().output, f.small_ref))
      << "the admitted queued request must still run after the rejection";
}

TEST(Fairness, CancellingAQueuedRequestFreesItsTicket) {
  auto& f = fx();
  ServiceOptions opts;
  opts.max_in_flight = 1;
  opts.max_queued = 4;
  ClipService service(f.pool, opts);

  BlockOneSlabSink sink;
  auto entered = sink.entered();
  ClipResult big_res;
  std::thread big_client(
      [&] { big_res = service.submit(f.big_request(&sink)); });
  entered.wait();

  ClipRequest waiting = f.small_request();
  waiting.cancel = par::CancelToken::make();
  std::promise<ErrorCode> code_out;
  std::thread waiter([&] {
    code_out.set_value(thrown_code([&] { service.submit(waiting); }));
  });
  // Cancel while the request sits in the admission queue; it must leave
  // promptly with kCancelled even though the slot never frees.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  waiting.cancel.cancel();
  EXPECT_EQ(code_out.get_future().get(), ErrorCode::kCancelled);
  waiter.join();

  sink.release();
  big_client.join();
  EXPECT_TRUE(bit_identical(big_res.output, f.big_ref));
  // The abandoned ticket must not block later admissions.
  EXPECT_TRUE(
      bit_identical(service.submit(f.small_request()).output, f.small_ref));
}

}  // namespace
}  // namespace psclip
