// Schema contract for the bench harness JSON reports: every report written
// through bench::JsonReport carries "schema_version" (the gate scripts and
// the perf-smoke CI job keys on it), scalar fields and row arrays survive
// round-tripping, and a caller-supplied version is not duplicated. Also
// pins the PhaseTimes wall/cpu unit split the schema-2 reports expose:
// per-slab phase sums must land in the *_cpu fields and may never exceed
// them, single-slab runs may not report more cpu clip time than wall,
// partition_cpu counts the prologue's pool helpers, not only the caller,
// and every phase span carries the CPU the stats report for its phase.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "bench_util.hpp"
#include "data/synthetic.hpp"
#include "geom/bool_op.hpp"
#include "mt/algorithm2.hpp"
#include "obs/recorder.hpp"
#include "parallel/thread_pool.hpp"

namespace psclip {
namespace {

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (!f) return {};
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

std::size_t count_key(const std::string& doc, const std::string& key) {
  std::size_t n = 0;
  for (std::size_t pos = doc.find('"' + key + '"'); pos != std::string::npos;
       pos = doc.find('"' + key + '"', pos + 1))
    ++n;
  return n;
}

TEST(BenchJson, SchemaVersionIsStamped) {
  bench::JsonReport r;
  r.field("threads", 4LL);
  r.field("dataset", std::string("synthetic"));
  r.row("phases");
  r.cell("name", std::string("partition"));
  r.cell("seconds", 0.25);
  const std::string path = ::testing::TempDir() + "/bench_json_test.json";
  ASSERT_TRUE(r.write_file(path));
  const std::string doc = slurp(path);
  std::remove(path.c_str());

  // Required keys for every report.
  EXPECT_EQ(count_key(doc, "schema_version"), 1u) << doc;
  EXPECT_NE(doc.find("\"schema_version\": " +
                     std::to_string(bench::kReportSchemaVersion)),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"threads\": 4"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"dataset\": \"synthetic\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"phases\": ["), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"name\": \"partition\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"seconds\": 0.25"), std::string::npos) << doc;
  // Balanced braces/brackets — cheap structural sanity without a parser.
  std::ptrdiff_t braces = 0, brackets = 0;
  for (const char ch : doc) {
    braces += (ch == '{') - (ch == '}');
    brackets += (ch == '[') - (ch == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(BenchJson, CallerVersionIsNotDuplicated) {
  bench::JsonReport r;
  r.field("schema_version", 7LL);
  const std::string path = ::testing::TempDir() + "/bench_json_test2.json";
  ASSERT_TRUE(r.write_file(path));
  const std::string doc = slurp(path);
  std::remove(path.c_str());
  EXPECT_EQ(count_key(doc, "schema_version"), 1u) << doc;
  EXPECT_NE(doc.find("\"schema_version\": 7"), std::string::npos) << doc;
}

// The schema-1 reports mixed wall-clock section times and per-worker cpu
// sums in one column, which made "clip" exceed the run total at slabs = 1
// (indexed_clip_ms 333 > indexed_ms 300 in the committed report). Schema 2
// split the columns but still filled the cpu side from wall timers inside
// the slab tasks, double-charging time the worker was descheduled — the
// artifact behind the committed clip-cpu "doubling" from 1 to 4 slabs. The
// schema-3 contract checked here: wall fields are calling-thread sections,
// cpu fields come from the thread CPU clock (par::ThreadCpuTimer), and a
// section's cpu time can never meaningfully exceed its wall time.
TEST(BenchJson, PhaseWallCpuInvariants) {
  const auto pair = data::synthetic_pair(77, 1200);
  par::ThreadPool pool(4);

  // CLOCK_THREAD_CPUTIME_ID granularity + a little scheduler slop.
  const double tol = 2e-3;

  for (const unsigned slabs : {1u, 4u, 8u}) {
    SCOPED_TRACE("slabs=" + std::to_string(slabs));
    mt::Alg2Options o;
    o.slabs = slabs;
    mt::Alg2Stats st;
    (void)mt::slab_clip(pair.subject, pair.clip, geom::BoolOp::kUnion, pool,
                        o, &st);

    // clip_cpu is exactly the per-slab thread-CPU sum (same summation
    // order, so bitwise equal — this is what "phase sums land in the cpu
    // column" means).
    double cpu_sum = 0.0, wall_sum = 0.0;
    for (const auto& s : st.slabs) {
      cpu_sum += s.cpu_seconds;
      wall_sum += s.seconds;
      // One slab's clip section runs on one thread: its CPU time cannot
      // exceed its own wall time (the schema-2 bug made them equal by
      // construction; now cpu <= wall is a real measurement invariant).
      EXPECT_LE(s.cpu_seconds, s.seconds + tol);
    }
    EXPECT_DOUBLE_EQ(st.phases.clip_cpu, cpu_sum);
    EXPECT_LE(st.phases.clip_cpu, wall_sum + tol);

    // merge runs on the caller only: its CPU time is bounded by the wall
    // section (equality only when the caller was never descheduled).
    EXPECT_LE(st.phases.merge_cpu, st.phases.merge + tol);

    // Every slab's clip section ran strictly inside the parallel region,
    // so at one slab the cpu time cannot exceed the region's wall time.
    if (slabs == 1) EXPECT_LE(st.phases.clip_cpu, st.phases.clip + tol);

    // CPU fields are real measurements, never negative.
    EXPECT_GE(st.phases.partition_cpu, 0.0);
    EXPECT_GE(st.phases.clip_cpu, 0.0);
    EXPECT_GE(st.phases.merge_cpu, 0.0);

    // Wall phases are sections of the same run: each is <= the total.
    EXPECT_LE(st.phases.partition, st.phases.total());
    EXPECT_LE(st.phases.clip, st.phases.total());
    EXPECT_LE(st.phases.merge, st.phases.total());
  }
}

// One clock per phase: every Algorithm 2 phase span carries the CPU its
// par::PhaseClock read, and the stats are filled from the same readings,
// so span and stats agree up to the spans' nanosecond rounding.
TEST(BenchJson, PhaseSpansMatchStats) {
  const auto pair = data::synthetic_pair(77, 1200);
  par::ThreadPool pool(4);
  constexpr std::int64_t kMissing = std::numeric_limits<std::int64_t>::min();
  for (const unsigned slabs : {1u, 6u}) {
    SCOPED_TRACE("slabs=" + std::to_string(slabs));
    obs::TraceRecorder rec;
    mt::Alg2Options o;
    o.slabs = slabs;
    o.trace_sink = &rec;
    mt::Alg2Stats st;
    (void)mt::slab_clip(pair.subject, pair.clip, geom::BoolOp::kUnion, pool,
                        o, &st);
    std::int64_t setup = 0, partition = 0, sweep = 0, merge = kMissing;
    std::size_t nsetup = 0, npartition = 0, nsweep = 0;
    for (const auto& sp : rec.spans()) {
      const std::string name = sp.name;
      const std::int64_t cpu = sp.arg("cpu_ns", kMissing);
      if (name == "alg2.setup") {
        setup += cpu;
        ++nsetup;
      } else if (name == "alg2.slab_partition") {
        partition += cpu;
        ++npartition;
      } else if (name == "alg2.slab_sweep") {
        sweep += cpu;
        ++nsweep;
      } else if (name == "alg2.merge") {
        merge = cpu;
      } else {
        continue;
      }
      EXPECT_NE(cpu, kMissing) << name << " has no cpu_ns";
    }
    ASSERT_EQ(nsetup, 1u);
    ASSERT_EQ(npartition, st.slabs.size());
    ASSERT_EQ(nsweep, st.slabs.size());
    EXPECT_EQ(merge, std::llround(st.phases.merge_cpu * 1e9));
    EXPECT_NEAR(static_cast<double>(sweep), st.phases.clip_cpu * 1e9,
                static_cast<double>(nsweep));
    EXPECT_NEAR(static_cast<double>(setup + partition),
                st.phases.partition_cpu * 1e9,
                static_cast<double>(nsetup + npartition));
  }
}

// Partition CPU attribution: once the prologue fans out on the pool, the
// caller's thread clock alone undercounts it. The setup's cpu_ns counts
// the CPU pool helpers spent on its loops, so it covers every setup step's
// cpu_ns — steps that ran on a helper included — and partition_cpu adds
// the per-slab cut to it.
TEST(BenchJson, PartitionCpuCountsPrologueHelpers) {
  const auto pair = data::synthetic_pair(7919, 24000);
  par::ThreadPool pool(4);
  bool helped = false;
  for (int rep = 0; rep < 3; ++rep) {
    obs::TraceRecorder rec;
    mt::Alg2Options o;
    o.trace_sink = &rec;
    mt::Alg2Stats st;
    (void)mt::slab_clip(pair.subject, pair.clip,
                        geom::BoolOp::kIntersection, pool, o, &st);
    const auto spans = rec.spans();
    const obs::TraceRecorder::Span* setup = nullptr;
    for (const auto& sp : spans)
      if (std::string(sp.name) == "alg2.setup") setup = &sp;
    ASSERT_NE(setup, nullptr);
    const double setup_cpu = static_cast<double>(setup->arg("cpu_ns")) * 1e-9;
    ASSERT_GE(setup_cpu, 0.0);
    double steps_cpu = 0.0;
    int nsteps = 0;
    for (const auto& sp : spans) {
      if (sp.parent != setup->id) continue;
      steps_cpu += static_cast<double>(sp.arg("cpu_ns")) * 1e-9;
      ++nsteps;
      helped = helped || sp.tid != setup->tid;
    }
    EXPECT_EQ(nsteps, 5);
    // Up to the spans' nanosecond rounding.
    EXPECT_GE(setup_cpu, steps_cpu - (nsteps + 1) * 1e-9);
    EXPECT_GE(st.phases.partition_cpu, setup_cpu - 1e-9);
  }
  // The minima sort runs beside the schedule merge, so at least one step
  // ran on a pool helper.
  EXPECT_TRUE(helped);
}

TEST(BenchJson, EmptyReportIsValidObject) {
  bench::JsonReport r;
  const std::string path = ::testing::TempDir() + "/bench_json_test3.json";
  ASSERT_TRUE(r.write_file(path));
  const std::string doc = slurp(path);
  std::remove(path.c_str());
  EXPECT_EQ(count_key(doc, "schema_version"), 1u) << doc;
  EXPECT_EQ(doc.front(), '{');
  EXPECT_EQ(doc[doc.size() - 2], '}');  // trailing newline after the object
}

}  // namespace
}  // namespace psclip
