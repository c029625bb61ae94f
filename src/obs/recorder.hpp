#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/worker_local.hpp"

namespace psclip::obs {

/// In-memory TraceSink: spans land in per-thread buffers (the
/// worker_local.hpp pattern — one buffer per recording thread, touched only
/// by its owner, so recording takes no lock and no cross-thread cache
/// traffic), timestamps come from one shared steady_clock epoch, and
/// counters/histograms go to an embedded Metrics registry.
///
/// Recording is wait-free against other recorders (span ids are one relaxed
/// fetch_add); export (spans(), chrome_trace_json(), write_chrome_trace())
/// walks every thread buffer under the registry lock and must run at a
/// quiescent point — after the traced calls return — exactly like
/// WorkerLocal::for_each.
class TraceRecorder final : public TraceSink {
 public:
  static constexpr std::size_t kMaxArgs = 8;
  /// Per-thread completed-span cap; beyond it new spans are counted in
  /// dropped_spans() instead of recorded, bounding a runaway trace.
  static constexpr std::size_t kMaxSpansPerThread = 1u << 20;

  /// One completed span.
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    const char* name = nullptr;
    Cat cat = Cat::kRequest;
    std::uint64_t t_start_ns = 0;  ///< since the recorder's epoch
    std::uint64_t t_end_ns = 0;
    std::uint32_t tid = 0;  ///< recorder-assigned recording-thread slot
    std::array<std::pair<const char*, std::int64_t>, kMaxArgs> args{};
    std::uint8_t nargs = 0;

    /// Value of the named arg, or `missing` when absent.
    [[nodiscard]] std::int64_t arg(const char* key,
                                   std::int64_t missing = -1) const;
  };

  TraceRecorder();

  SpanId begin_span(const char* name, Cat cat, SpanId parent) override;
  void end_span(SpanId id) override;
  void span_arg(SpanId id, const char* key, std::int64_t value) override;
  void add_counter(const char* name, std::int64_t delta) override;
  void observe(const char* histogram, double seconds) override;
  void set_gauge(const char* name, std::int64_t value) override;

  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

  /// All completed spans from all threads, in (tid, start time) order.
  /// Quiescent-point only (see class comment).
  [[nodiscard]] std::vector<Span> spans() const;

  /// Spans discarded because a thread hit kMaxSpansPerThread.
  [[nodiscard]] std::uint64_t dropped_spans() const;

  /// Chrome trace_event JSON ({"traceEvents":[...]}, complete "X" events,
  /// microsecond timestamps) — loadable in chrome://tracing / Perfetto.
  /// Span args appear as event args, plus "id" and "parent" for explicit
  /// cross-thread lineage. Quiescent-point only.
  [[nodiscard]] std::string chrome_trace_json() const;
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct ThreadBuf {
    std::vector<Span> done;
    std::vector<Span> open;  ///< stack: innermost span last
    std::uint32_t tid = 0;
    bool tid_assigned = false;
    std::uint64_t dropped = 0;
  };

  ThreadBuf& buf();
  std::uint64_t now_ns() const;
  /// Innermost open span of the calling thread matching `id`, or null.
  static Span* find_open(ThreadBuf& b, std::uint64_t id);

  par::WorkerLocal<ThreadBuf> bufs_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint32_t> next_tid_{0};
  std::chrono::steady_clock::time_point epoch_;
  Metrics metrics_;
};

}  // namespace psclip::obs
