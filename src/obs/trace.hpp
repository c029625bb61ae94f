#pragma once

#include <cstdint>

namespace psclip::obs {

/// Category of a span — mirrors the pipeline's hierarchy (request → phase →
/// slab → rung) plus the two cross-cutting families (parsing, scheduling).
/// The Chrome exporter writes it as the event's `cat` so traces can be
/// filtered per layer in chrome://tracing.
enum class Cat : std::uint8_t {
  kRequest = 0,  ///< one public-API clip call, end to end
  kPhase,        ///< one algorithm phase (partition / clip / merge / …)
  kSlab,         ///< one slab task of Algorithm 2
  kRung,         ///< one attempt on one degradation-ladder rung
  kParse,        ///< WKT / GeoJSON parsing
  kSchedule,     ///< thread-pool scheduling sections
};

const char* to_string(Cat c);

/// Opaque span identifier. 0 = "no span" (the null id); real ids are
/// process-unique for the lifetime of the sink that allocated them.
struct SpanId {
  std::uint64_t v = 0;
  explicit operator bool() const { return v != 0; }
};

/// Abstract trace + metrics consumer. Instrumentation sites hold a
/// `TraceSink*`; a null pointer is the null sink and every site guards with
/// one branch, so disabled tracing costs a pointer test and nothing else —
/// no clock reads, no allocation, no virtual dispatch (the same "free when
/// off" discipline as the fault.hpp injection sites).
///
/// Contract for implementations:
///   * begin_span / span_arg / end_span for one span are always called from
///     the same thread (RAII usage), but many threads record concurrently —
///     all five entry points must be thread-safe.
///   * `name` and `key` are static strings (string literals or other
///     pointers that outlive the sink); sinks store the pointer, not a copy.
///   * `parent` may name a span begun on a *different* thread (a slab span's
///     parent is the clip-phase span of the calling thread). A null parent
///     means "infer from the calling thread's innermost open span".
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Open a span. Returns its id (never null for a live sink).
  virtual SpanId begin_span(const char* name, Cat cat, SpanId parent) = 0;
  /// Close a span begun on this thread. Timestamps are taken here.
  virtual void end_span(SpanId id) = 0;
  /// Attach `key = value` to a span begun on this thread and not yet ended.
  virtual void span_arg(SpanId id, const char* key, std::int64_t value) = 0;

  /// Add `delta` to the named monotonic counter.
  virtual void add_counter(const char* name, std::int64_t delta) = 0;
  /// Record one latency observation (seconds) into the named fixed-bucket
  /// histogram.
  virtual void observe(const char* histogram, double seconds) = 0;
  /// Set the named last-value gauge (cache residency, queue depth, ...).
  /// Non-pure with a no-op default so sinks written against the original
  /// five-method contract (tests, external consumers) keep compiling.
  virtual void set_gauge(const char* name, std::int64_t value) {
    (void)name;
    (void)value;
  }
};

/// Process-wide default sink, used by instrumentation sites that have no
/// options struct to ride on (parsers, thread-pool scheduling sections) and
/// by the psclip::clip facade to populate per-call options. Null (tracing
/// off) until set_global_sink installs a recorder; the CLI does that for
/// --trace-out/--metrics. The pointed-to sink must outlive all traced calls.
TraceSink* global_sink();
void set_global_sink(TraceSink* sink);

/// RAII span. With a null sink every member is a no-op behind one branch —
/// cheap enough for hot paths. Movable so instrumented scopes can return it.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(TraceSink* sink, const char* name, Cat cat, SpanId parent = {})
      : sink_(sink) {
    if (sink_) id_ = sink_->begin_span(name, cat, parent);
  }
  ~ScopedSpan() { end(); }

  ScopedSpan(ScopedSpan&& o) noexcept : sink_(o.sink_), id_(o.id_) {
    o.sink_ = nullptr;
  }
  ScopedSpan& operator=(ScopedSpan&& o) noexcept {
    if (this != &o) {
      end();
      sink_ = o.sink_;
      id_ = o.id_;
      o.sink_ = nullptr;
    }
    return *this;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attach an argument (no-op when the sink is null or the span ended).
  void arg(const char* key, std::int64_t value) {
    if (sink_) sink_->span_arg(id_, key, value);
  }

  /// Close the span early (idempotent; the destructor does the same).
  void end() {
    if (sink_) sink_->end_span(id_);
    sink_ = nullptr;
  }

  [[nodiscard]] SpanId id() const { return id_; }

 private:
  TraceSink* sink_ = nullptr;
  SpanId id_;
};

}  // namespace psclip::obs
