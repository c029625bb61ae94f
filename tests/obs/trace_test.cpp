// src/obs tracing + metrics unit tests: span nesting and parent inference,
// cross-thread lineage under the pool's slab scheduling, histogram bucket
// accounting, the null-sink zero-allocation guarantee, and a concurrent
// recording stress that must run clean under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstdio>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "mt/algorithm2.hpp"
#include "mt/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"

// Allocation counter for the null-sink test: every global new in this
// binary bumps it, so a region that must not allocate can assert a zero
// delta. Every replaceable form is replaced — plain, array, nothrow and
// aligned — so whatever pointer reaches the std::free in the deletes came
// from this hook's own malloc / aligned_alloc (a form left to the runtime
// would hand its pointer to our free: an alloc-dealloc mismatch under
// ASan).
namespace {
std::atomic<std::int64_t> g_allocs{0};

void* counted_alloc(std::size_t n) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}

void* counted_alloc(std::size_t n, std::align_val_t al) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(a, ((n ? n : 1) + a - 1) / a * a);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace psclip {
namespace {

using obs::Cat;
using obs::ScopedSpan;
using obs::TraceRecorder;

const TraceRecorder::Span* find_span(const std::vector<TraceRecorder::Span>& v,
                                     const std::string& name) {
  for (const auto& s : v)
    if (name == s.name) return &s;
  return nullptr;
}

TEST(TraceRecorder, NestingAndImplicitParent) {
  TraceRecorder rec;
  {
    ScopedSpan outer(&rec, "outer", Cat::kRequest);
    outer.arg("answer", 42);
    {
      ScopedSpan inner(&rec, "inner", Cat::kPhase);  // parent inferred
      ScopedSpan innermost(&rec, "innermost", Cat::kSlab);
    }
    ScopedSpan sibling(&rec, "sibling", Cat::kPhase);
  }
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 4u);
  const auto* outer = find_span(spans, "outer");
  const auto* inner = find_span(spans, "inner");
  const auto* innermost = find_span(spans, "innermost");
  const auto* sibling = find_span(spans, "sibling");
  ASSERT_TRUE(outer && inner && innermost && sibling);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(innermost->parent, inner->id);
  EXPECT_EQ(sibling->parent, outer->id);
  EXPECT_EQ(outer->arg("answer"), 42);
  EXPECT_EQ(outer->arg("absent", -7), -7);
  // Time containment: children start no earlier and end no later.
  for (const auto* s : {inner, innermost, sibling}) {
    EXPECT_GE(s->t_start_ns, outer->t_start_ns);
    EXPECT_LE(s->t_end_ns, outer->t_end_ns);
    EXPECT_LE(s->t_start_ns, s->t_end_ns);
  }
  EXPECT_EQ(rec.dropped_spans(), 0u);
}

TEST(TraceRecorder, ExplicitCrossThreadParent) {
  TraceRecorder rec;
  obs::SpanId root_id;
  {
    ScopedSpan root(&rec, "root", Cat::kRequest);
    root_id = root.id();
    std::thread t([&] {
      ScopedSpan child(&rec, "child", Cat::kSlab, root_id);
    });
    t.join();
  }
  const auto spans = rec.spans();
  const auto* root = find_span(spans, "root");
  const auto* child = find_span(spans, "child");
  ASSERT_TRUE(root && child);
  EXPECT_EQ(child->parent, root->id);
  EXPECT_NE(child->tid, root->tid);
}

// End-to-end through Algorithm 2: the recorder must show the documented
// request -> phase -> slab hierarchy with per-slab rung/worker args, even
// though slab tasks run on several threads.
TEST(TraceRecorder, Alg2HierarchyUnderWorkStealing) {
  const auto pair = data::synthetic_pair(7, 60);
  par::ThreadPool pool(4);
  TraceRecorder rec;
  mt::Alg2Options o;
  o.slabs = 8;
  o.trace_sink = &rec;
  mt::slab_clip(pair.subject, pair.clip, geom::BoolOp::kIntersection, pool, o);
  pool.wait_idle();

  const auto spans = rec.spans();
  const auto* req = find_span(spans, "alg2.slab_clip");
  const auto* clip = find_span(spans, "alg2.clip");
  const auto* merge = find_span(spans, "alg2.merge");
  ASSERT_TRUE(req && clip && merge);
  EXPECT_EQ(req->parent, 0u);
  EXPECT_EQ(clip->parent, req->id);
  EXPECT_EQ(merge->parent, req->id);
  EXPECT_EQ(req->arg("slabs"), 8);

  // Every slab id exactly once, each span a child of the clip phase with
  // its executing thread (a pool worker, or -1 for the caller) and its
  // degradation rung recorded (healthy in a fault-free run).
  std::set<std::int64_t> slab_ids;
  for (const auto& s : spans) {
    if (std::string(s.name) != "alg2.slab") continue;
    EXPECT_EQ(s.parent, clip->id);
    EXPECT_GE(s.arg("worker"), -1);
    EXPECT_LT(s.arg("worker"), static_cast<std::int64_t>(pool.size()));
    EXPECT_EQ(s.arg("rung"), static_cast<std::int64_t>(mt::Rung::kHealthy));
    EXPECT_TRUE(slab_ids.insert(s.arg("slab")).second);
  }
  std::set<std::int64_t> want;
  for (std::int64_t t = 0; t < 8; ++t) want.insert(t);
  EXPECT_EQ(slab_ids, want);

  // Counters and histograms made it into the embedded registry.
  const auto snap = rec.metrics().snapshot();
  bool saw_requests = false, saw_hist = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "alg2.requests") {
      saw_requests = true;
      EXPECT_EQ(value, 1);
    }
  }
  for (const auto& h : snap.histograms)
    if (h.name == "alg2.request_seconds") {
      saw_hist = true;
      EXPECT_EQ(h.count, 1u);
    }
  EXPECT_TRUE(saw_requests);
  EXPECT_TRUE(saw_hist);

  // The Chrome export is well-formed enough for chrome://tracing to load:
  // one complete event per span, with the lineage args present.
  const std::string json = rec.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"alg2.slab_clip\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\""), std::string::npos);
}

TEST(Histogram, BucketAccounting) {
  obs::Histogram h;
  h.observe(1.5e-6);  // bucket 1 (1e-6, 2e-6]
  h.observe(1.5e-6);
  h.observe(3e-3);    // bucket 11 (2e-3, 5e-3]
  h.observe(10.0);    // overflow bucket
  EXPECT_EQ(h.total_count(), 4u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(11), 1u);
  EXPECT_EQ(h.bucket_count(obs::Histogram::kBuckets - 1), 1u);
  EXPECT_NEAR(h.sum_seconds(), 1.5e-6 + 1.5e-6 + 3e-3 + 10.0, 1e-6);
}

TEST(Metrics, SnapshotQuantileAndRenderers) {
  obs::Metrics m;
  m.counter("n").add(3);
  obs::Histogram& h = m.histogram("lat");
  for (int i = 0; i < 9; ++i) h.observe(1.5e-6);
  h.observe(0.3);  // one outlier
  const auto snap = m.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& row = snap.histograms[0];
  EXPECT_EQ(row.count, 10u);
  // Median lands in the (1e-6, 2e-6] bucket; p99 in the outlier's.
  EXPECT_DOUBLE_EQ(row.quantile(0.5), 2e-6);
  EXPECT_DOUBLE_EQ(row.quantile(0.99), 5e-1);
  const std::string text = snap.to_text();
  EXPECT_NE(text.find("n"), std::string::npos);
  EXPECT_NE(text.find("lat"), std::string::npos);
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
}

// The "free when off" contract: with a null sink, a fully-instrumented
// region performs no allocation and no sink call — each site is one branch.
TEST(NullSink, ZeroAllocation) {
  ASSERT_EQ(obs::global_sink(), nullptr);
  const std::int64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    ScopedSpan s(nullptr, "off", Cat::kPhase);
    s.arg("k", i);
    ScopedSpan g(obs::global_sink(), "off2", Cat::kParse);
    g.arg("k", i);
  }
  const std::int64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
}

// Many threads hammer one recorder (spans with args, counters, histogram
// observations) — must be race-free under TSan, and every event must be
// accounted for afterwards.
TEST(TraceRecorder, ConcurrentStress) {
  TraceRecorder rec;
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 2000;
  {
    ScopedSpan root(&rec, "stress", Cat::kRequest);
    const obs::SpanId root_id = root.id();
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&rec, root_id, t] {
        for (int i = 0; i < kSpansPerThread; ++i) {
          ScopedSpan s(&rec, "work", Cat::kSlab, root_id);
          s.arg("thread", t);
          s.arg("i", i);
          rec.add_counter("stress.events", 1);
          rec.observe("stress.seconds", 1e-6 * (i % 50));
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  const auto spans = rec.spans();
  std::size_t work = 0;
  std::set<std::uint64_t> ids;
  for (const auto& s : spans) {
    EXPECT_TRUE(ids.insert(s.id).second) << "duplicate span id";
    if (std::string(s.name) == "work") ++work;
  }
  EXPECT_EQ(work, static_cast<std::size_t>(kThreads) * kSpansPerThread);
  const auto snap = rec.metrics().snapshot();
  for (const auto& [name, value] : snap.counters)
    if (name == "stress.events")
      EXPECT_EQ(value, static_cast<std::int64_t>(kThreads) * kSpansPerThread);
  for (const auto& h : snap.histograms)
    if (h.name == "stress.seconds")
      EXPECT_EQ(h.count, static_cast<std::uint64_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(rec.dropped_spans(), 0u);
}

TEST(TraceRecorder, WriteChromeTraceFile) {
  TraceRecorder rec;
  { ScopedSpan s(&rec, "only", Cat::kRequest); }
  const std::string path =
      ::testing::TempDir() + "/psclip_trace_test.json";
  ASSERT_TRUE(rec.write_chrome_trace(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"only\""), std::string::npos);
}

}  // namespace
}  // namespace psclip
