#pragma once

#include <chrono>
#include <cmath>
#include <ctime>
#include <optional>

#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace psclip::par {

/// Monotonic wall-clock stopwatch (benchmark harness, PhaseClock).
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Per-thread CPU-time stopwatch: counts only time the *calling thread*
/// actually executed, excluding time it was descheduled, so workers that
/// timeshare cores do not charge each other's slices. Falls back to the
/// wall clock where the POSIX per-thread clock is unavailable.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(now()) {}

  void reset() { start_ = now(); }

  /// CPU seconds this thread consumed since construction / last reset().
  [[nodiscard]] double seconds() const { return now() - start_; }

  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  static double now() {
#ifdef CLOCK_THREAD_CPUTIME_ID
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
      return static_cast<double>(ts.tv_sec) +
             static_cast<double>(ts.tv_nsec) * 1e-9;
#endif
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  double start_;
};

/// The one clock of a request's phases. Opens the phase's span, makes a
/// CpuMeter the thread's meter for the phase (chained to the enclosing
/// clock's, so every enclosing phase is charged too), and on stop() reads
/// the phase's wall time and its CPU time on every thread: its own
/// thread's CPU clock plus the parallel_for chunks pool helpers ran for it,
/// nested loops included, each charged once. The same CPU reading is
/// stamped on the span as "cpu_ns", so the span and the stats filled from
/// a Reading cannot disagree. Clocks on one thread nest last-in-first-out.
class PhaseClock {
 public:
  struct Reading {
    double wall = 0.0;  ///< seconds on the steady clock
    double cpu = 0.0;   ///< thread-CPU seconds on every thread
  };

  PhaseClock(obs::TraceSink* sink, const char* name,
             obs::Cat cat = obs::Cat::kPhase, obs::SpanId parent = {})
      : span_(sink, name, cat, parent),
        helpers_(current_cpu_meter()),
        scope_(std::in_place, helpers_) {}
  ~PhaseClock() {
    if (scope_) stop();
  }
  PhaseClock(const PhaseClock&) = delete;
  PhaseClock& operator=(const PhaseClock&) = delete;

  [[nodiscard]] obs::ScopedSpan& span() { return span_; }

  /// Ends the phase (the destructor does, if nothing did before): restores
  /// the enclosing meter, stamps "cpu_ns" and closes the span.
  Reading stop() {
    scope_.reset();
    const Reading r{wall_.seconds(), own_.seconds() + helpers_.seconds()};
    span_.arg("cpu_ns", std::llround(r.cpu * 1e9));
    span_.end();
    return r;
  }

 private:
  obs::ScopedSpan span_;
  CpuMeter helpers_;
  std::optional<ScopedCpuMeter> scope_;
  WallTimer wall_;
  ThreadCpuTimer own_;
};

}  // namespace psclip::par
