// The slab engine's retained setup slot (mt/algorithm2.cpp, SetupScratch):
// one process-wide store for the prologue's fragments, table, schedule and
// bound heads, reused from call to call. A call that finds the slot taken
// builds its prologue in storage of its own. These tests hold every path
// to the bytes of a fresh build:
//   * a smaller clip after a larger one (the slot's vectors shrink by
//     resize, so nothing of the larger table may show);
//   * two threads clipping at once on one pool, one in the slot and one
//     in its own storage;
//   * a slab_clip nested inside a prepared source's prepared(), which runs
//     while the outer call holds the slot.
// Each call reports which storage it used as the alg2.setup span's
// "retained_slot" arg, and the bytes that storage holds after the prologue
// as its "slot_bytes" arg: a call leaves the slot holding at most twice
// what it used, so a larger earlier request is not kept.

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/synthetic.hpp"
#include "golden_digests.hpp"
#include "mt/algorithm2.hpp"
#include "obs/recorder.hpp"
#include "parallel/thread_pool.hpp"
#include "seq/bounds.hpp"

namespace psclip {
namespace {

using geom::BoolOp;
using geom::PolygonSet;

par::ThreadPool& pool() {
  static par::ThreadPool p(4);
  return p;
}

/// The output and the alg2.setup span's retained_slot and slot_bytes args
/// of one traced slab_clip call.
struct Traced {
  std::uint64_t digest = 0;
  std::int64_t retained = -1;
  std::int64_t slot_bytes = -1;
};

Traced traced_clip(const PolygonSet& a, const PolygonSet& b, BoolOp op,
                   unsigned slabs, seq::PreparedSource* cache = nullptr) {
  obs::TraceRecorder rec;
  mt::Alg2Options o;
  o.slabs = slabs;
  o.trace_sink = &rec;
  o.prepared_cache = cache;
  Traced t;
  t.digest = golden::output_digest(mt::slab_clip(a, b, op, pool(), o));
  for (const obs::TraceRecorder::Span& sp : rec.spans())
    if (std::strcmp(sp.name, "alg2.setup") == 0) {
      t.retained = sp.arg("retained_slot", -1);
      t.slot_bytes = sp.arg("slot_bytes", -1);
    }
  return t;
}

std::uint64_t plain_clip(const PolygonSet& a, const PolygonSet& b, BoolOp op,
                         unsigned slabs) {
  mt::Alg2Options o;
  o.slabs = slabs;
  return golden::output_digest(mt::slab_clip(a, b, op, pool(), o));
}

golden::NamedInput large_input(const std::string& name) {
  for (golden::NamedInput& in : golden::large_inputs())
    if (in.name == name) return std::move(in);
  ADD_FAILURE() << "no large input named " << name;
  return {};
}

// A, then a larger B (more contours, edges, minima and schedule values),
// then A again, on one thread: every call runs in the slot, and each
// output is its golden row, so the table that shrank back to A's size
// kept nothing of B's. Small corpus cases follow B the same way.
TEST(SetupSlot, SmallerClipAfterLargerMatchesGolden) {
  const golden::NamedInput a = large_input("pair24k");
  const golden::NamedInput b = large_input("table3");
  ASSERT_LT(a.a.num_contours() + a.b.num_contours(),
            b.a.num_contours() + b.b.num_contours());
  ASSERT_LT(a.a.num_vertices() + a.b.num_vertices(),
            b.a.num_vertices() + b.b.num_vertices());
  constexpr BoolOp kOp = BoolOp::kUnion;
  const auto check = [](const golden::NamedInput& in, unsigned slabs) {
    const Traced t = traced_clip(in.a, in.b, kOp, slabs);
    EXPECT_EQ(t.retained, 1) << in.name;
    EXPECT_EQ(t.digest, golden::expected(golden::key(
                            in.name, kOp, golden::slab_engine(slabs))))
        << in.name << " at " << slabs << " slabs";
  };
  for (const unsigned slabs : {6u, 16u}) {
    check(a, slabs);
    check(b, slabs);
    check(a, slabs);
  }
  std::vector<fuzz::FuzzCase> cases = fuzz::make_cases();
  cases.resize(std::min<std::size_t>(cases.size(), 24));
  for (const fuzz::FuzzCase& c : cases) {
    const fuzz::Inputs in = fuzz::make_inputs(c);
    const Traced t = traced_clip(in.a, in.b, c.op, 6);
    EXPECT_EQ(t.retained, 1);
    EXPECT_EQ(t.digest,
              golden::expected(golden::key(golden::corpus_name(c), c.op,
                                           golden::slab_engine(6))))
        << c.repro();
  }
}

// Two requests of the same contours, one giant contour moved to another
// index: X = (giant, small | clip), Y = (small, giant | clip). Each index
// of the slot's fragment store keeps at most twice what the last call put
// there, so after X then Y the slot holds no more than after Y then Y (a
// store that only grew would keep a giant fragment at both indices). A
// tiny request after them leaves the slot small.
TEST(SetupSlot, RetainedBytesFollowTheLastRequest) {
  const data::SyntheticPair big = data::synthetic_pair(21, 12000);
  const data::SyntheticPair small = data::synthetic_pair(22, 60);
  const geom::Contour& giant = big.subject.contours.at(0);
  const geom::Contour& tiny = small.subject.contours.at(0);
  ASSERT_GE(giant.size(), 4096u);
  PolygonSet x, y;
  x.contours = {giant, tiny};
  y.contours = {tiny, giant};
  const PolygonSet& clip = big.clip;
  constexpr BoolOp kOp = BoolOp::kIntersection;
  constexpr unsigned kSlabs = 8;
  const std::uint64_t want_y = plain_clip(y, clip, kOp, kSlabs);

  (void)traced_clip(y, clip, kOp, kSlabs);
  const Traced y_after_y = traced_clip(y, clip, kOp, kSlabs);
  (void)traced_clip(x, clip, kOp, kSlabs);
  const Traced y_after_x = traced_clip(y, clip, kOp, kSlabs);
  EXPECT_EQ(y_after_y.retained, 1);
  EXPECT_EQ(y_after_x.retained, 1);
  EXPECT_EQ(y_after_y.digest, want_y);
  EXPECT_EQ(y_after_x.digest, want_y);
  EXPECT_GT(y_after_y.slot_bytes,
            static_cast<std::int64_t>(64 * giant.size()));
  EXPECT_LE(y_after_x.slot_bytes, y_after_y.slot_bytes);

  const Traced last = traced_clip(small.subject, small.clip, kOp, 1);
  EXPECT_EQ(last.retained, 1);
  EXPECT_LT(last.slot_bytes, 64 * 1024);
}

/// Hands out seq::prepare_contour's fragments, as a cache would. Every
/// prepared() call blocks until release(); wait_entered() returns once the
/// first call is parked.
class GatedSource : public seq::PreparedSource {
 public:
  std::shared_ptr<const seq::PreparedContour> prepared(
      const geom::Contour& c, bool is_clip) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    auto pc = std::make_shared<seq::PreparedContour>();
    if (!seq::prepare_contour(c, is_clip, *pc)) return nullptr;
    return pc;
  }
  void wait_entered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

// Two threads clip at once on one shared pool. The first holds the slot
// (it is parked inside its prepare step) while the second runs start to
// finish in its own storage; both outputs equal the serial ones.
TEST(SetupSlot, ConcurrentCallBuildsInItsOwnStorage) {
  const data::SyntheticPair p = data::synthetic_pair(7, 4000);
  const data::SyntheticPair q = data::synthetic_pair(8, 3000);
  constexpr BoolOp kOp = BoolOp::kIntersection;
  constexpr unsigned kSlabs = 8;
  const std::uint64_t want_p = plain_clip(p.subject, p.clip, kOp, kSlabs);
  const std::uint64_t want_q = plain_clip(q.subject, q.clip, kOp, kSlabs);

  GatedSource gate;
  Traced first;
  std::thread holder(
      [&] { first = traced_clip(p.subject, p.clip, kOp, kSlabs, &gate); });
  gate.wait_entered();
  const Traced second = traced_clip(q.subject, q.clip, kOp, kSlabs);
  gate.release();
  holder.join();

  EXPECT_EQ(first.retained, 1);
  EXPECT_EQ(second.retained, 0);
  EXPECT_EQ(first.digest, want_p);
  EXPECT_EQ(second.digest, want_q);
  // The slot is free again, and its next user still gets the same bytes.
  const Traced after = traced_clip(q.subject, q.clip, kOp, kSlabs);
  EXPECT_EQ(after.retained, 1);
  EXPECT_EQ(after.digest, want_q);
}

/// A source whose prepared() runs a whole slab_clip of its own before it
/// returns seq::prepare_contour's fragment: that inner call starts while
/// the outer one holds the slot.
class NestingSource : public seq::PreparedSource {
 public:
  NestingSource(const PolygonSet& a, const PolygonSet& b) : a_(a), b_(b) {}

  std::shared_ptr<const seq::PreparedContour> prepared(
      const geom::Contour& c, bool is_clip) override {
    const Traced inner = traced_clip(a_, b_, BoolOp::kUnion, 4);
    {
      std::lock_guard<std::mutex> lock(mu_);
      inner_.push_back(inner);
    }
    auto pc = std::make_shared<seq::PreparedContour>();
    if (!seq::prepare_contour(c, is_clip, *pc)) return nullptr;
    return pc;
  }
  std::vector<Traced> inner() {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_;
  }

 private:
  const PolygonSet& a_;
  const PolygonSet& b_;
  std::mutex mu_;
  std::vector<Traced> inner_;
};

TEST(SetupSlot, NestedCallFromPreparedSourceFallsBack) {
  const data::SyntheticPair outer = data::synthetic_pair(11, 2500);
  const data::SyntheticPair inner = data::synthetic_pair(12, 600);
  constexpr BoolOp kOp = BoolOp::kDifference;
  const std::uint64_t want_outer =
      plain_clip(outer.subject, outer.clip, kOp, 6);
  const std::uint64_t want_inner =
      plain_clip(inner.subject, inner.clip, BoolOp::kUnion, 4);

  NestingSource source(inner.subject, inner.clip);
  const Traced got = traced_clip(outer.subject, outer.clip, kOp, 6, &source);
  EXPECT_EQ(got.retained, 1);
  EXPECT_EQ(got.digest, want_outer);
  const std::vector<Traced> nested = source.inner();
  ASSERT_EQ(nested.size(),
            outer.subject.num_contours() + outer.clip.num_contours());
  for (const Traced& t : nested) {
    EXPECT_EQ(t.retained, 0);
    EXPECT_EQ(t.digest, want_inner);
  }
}

}  // namespace
}  // namespace psclip
