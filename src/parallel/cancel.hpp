#pragma once

// Request governance: cooperative cancellation, deadlines, and memory
// budgets (DESIGN.md §11).
//
// The paper's central claim — output-sensitive cost — cuts both ways for a
// service: the cost of a request is unknowable before running it, so the
// only way to bound tail latency and memory is to govern the request *while
// it runs*. This header provides the three primitives and the propagation
// machinery:
//
//   Deadline        an absolute steady_clock expiry (or "none").
//   ResourceBudget  a relaxed-atomic byte meter with a hard limit; charging
//                   past the limit trips a sticky "blown" flag.
//   CancelToken     a copyable handle bundling an explicit cancel flag, a
//                   Deadline, and a ResourceBudget*. A default token governs
//                   nothing and costs one null check per checkpoint.
//
// Propagation mirrors fault::ScopedKey: a thread installs the token state
// in a thread_local via ScopedToken, so checkpoints deep in the sequential
// kernels (per scanbeam in the Vatti sweep) need no plumbed parameter.
// ThreadPool::parallel_for captures the submitter's installed token and
// re-installs it on every thread that runs its chunks, so governance
// follows a chunk to whichever worker runs it, exactly like fault keys do.
//
// checkpoint() is the single cooperative preemption point. Hot path: one
// thread_local load + null test. With a token installed: one relaxed load
// of the cancel flag, and an amortized (1-in-32) steady_clock read for the
// deadline, keeping per-scanbeam use under the 1% overhead gate
// (bench_governance_overhead). Tripping throws psclip::Error with the
// precise code (kCancelled / kDeadlineExceeded / kBudgetExceeded) so the
// degradation ladder can route on it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "error.hpp"

namespace psclip::par {

/// Absolute expiry on the steady clock. Default-constructed = no deadline.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;
  explicit Deadline(Clock::time_point at) : at_(at), armed_(true) {}

  /// Deadline `ms` milliseconds from now.
  static Deadline in_ms(std::int64_t ms) {
    return Deadline(Clock::now() + std::chrono::milliseconds(ms));
  }

  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] Clock::time_point at() const { return at_; }
  [[nodiscard]] bool expired() const { return armed_ && Clock::now() >= at_; }

  /// Milliseconds until expiry (negative once past due); 0 when unarmed.
  [[nodiscard]] std::int64_t remaining_ms() const {
    if (!armed_) return 0;
    return std::chrono::duration_cast<std::chrono::milliseconds>(at_ -
                                                                 Clock::now())
        .count();
  }

 private:
  Clock::time_point at_{};
  bool armed_ = false;
};

/// Relaxed-atomic byte meter. Accounting is approximate and structural
/// (container capacities, not malloc telemetry): charges are made where the
/// library grows its big structures — slab scratch arenas, bound tables,
/// prepared-fragment assembly, output-polygon growth — and released when
/// the structure is returned or the attempt unwinds. `limit == 0` means
/// unlimited (the meter still tracks peak for reporting).
///
/// Over-limit charging is detected at try_charge(); the first failure sets
/// a sticky `blown` flag so every subsequent checkpoint on any thread trips
/// too (one slab blowing the budget cancels the whole request's appetite,
/// not just that slab's attempt — unless the charge is released first, see
/// charge_transient()).
class ResourceBudget {
 public:
  ResourceBudget() = default;
  explicit ResourceBudget(std::uint64_t limit_bytes) : limit_(limit_bytes) {}

  [[nodiscard]] std::uint64_t limit() const { return limit_; }
  [[nodiscard]] std::uint64_t used() const {
    return used_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t peak() const {
    return peak_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool blown() const {
    return blown_.load(std::memory_order_relaxed);
  }

  /// Charge `bytes`; returns false (and marks the budget blown) when the
  /// charge would exceed the limit. The failed charge is NOT recorded.
  [[nodiscard]] bool try_charge(std::uint64_t bytes) {
    const std::uint64_t now =
        used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (limit_ != 0 && now > limit_) {
      used_.fetch_sub(bytes, std::memory_order_relaxed);
      blown_.store(true, std::memory_order_relaxed);
      return false;
    }
    // Peak is a monotonic max; racing relaxed CAS is fine (reporting only).
    std::uint64_t p = peak_.load(std::memory_order_relaxed);
    while (now > p &&
           !peak_.compare_exchange_weak(p, now, std::memory_order_relaxed)) {
    }
    return true;
  }

  void release(std::uint64_t bytes) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// Probe a transient spike: report whether `bytes` on top of the current
  /// usage would fit, without retaining it. Peak still records a fitting
  /// spike; a failed probe does NOT set the sticky flag (the memory was
  /// never retained), letting the degradation ladder retry the attempt that
  /// hogged. The spike is never added to `used`, so a concurrent try_charge
  /// cannot see it and stick the flag for a request that never held it.
  [[nodiscard]] bool charge_transient(std::uint64_t bytes) {
    const std::uint64_t now = used_.load(std::memory_order_relaxed) + bytes;
    const bool fits = limit_ == 0 || now <= limit_;
    if (fits) {
      std::uint64_t p = peak_.load(std::memory_order_relaxed);
      while (now > p &&
             !peak_.compare_exchange_weak(p, now, std::memory_order_relaxed)) {
      }
    }
    return fits;
  }

  /// Zero the meter (between requests; not thread-safe vs. active charges).
  void reset() {
    used_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
    blown_.store(false, std::memory_order_relaxed);
  }

 private:
  std::uint64_t limit_ = 0;  // 0 = unlimited
  std::atomic<std::uint64_t> used_{0};
  std::atomic<std::uint64_t> peak_{0};
  std::atomic<bool> blown_{false};
};

namespace detail {
/// Shared state behind CancelToken copies. Lives as long as any copy does,
/// so a worker checkpointing after the submitter returned is safe.
struct TokenState {
  std::atomic<bool> cancelled{false};
  Deadline deadline;
  std::shared_ptr<ResourceBudget> budget;  // may be null
};

/// True once any governance condition of `s` holds.
[[nodiscard]] inline bool tripped(const TokenState& s) {
  return s.cancelled.load(std::memory_order_relaxed) ||
         (s.budget && s.budget->blown()) || s.deadline.expired();
}

/// Throw the precise governance Error for a tripped `s`. The check order
/// (cancel, budget, deadline) makes the reported code deterministic when
/// several conditions hold at once.
[[noreturn]] inline void throw_stopped(const TokenState& s) {
  if (s.cancelled.load(std::memory_order_relaxed))
    throw Error(ErrorCode::kCancelled, "request cancelled");
  if (s.budget && s.budget->blown())
    throw Error(ErrorCode::kBudgetExceeded,
                "memory budget exceeded (limit " +
                    std::to_string(s.budget->limit()) + " bytes)");
  throw Error(ErrorCode::kDeadlineExceeded, "deadline exceeded");
}
}  // namespace detail

/// Copyable cancellation/deadline/budget handle. A default-constructed
/// token is "null": it governs nothing and every check is free. Tokens are
/// value types over shared state — copies observe the same cancel flag and
/// budget, and keeping any copy alive keeps the state alive.
class CancelToken {
 public:
  CancelToken() = default;

  static CancelToken make() {
    CancelToken t;
    t.state_ = std::make_shared<detail::TokenState>();
    return t;
  }
  static CancelToken with_deadline(Deadline d) {
    CancelToken t = make();
    t.state_->deadline = d;
    return t;
  }

  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  /// Request cancellation; every checkpoint on every thread trips next time
  /// it runs. Safe from any thread, idempotent. No-op on a null token.
  void cancel() const {
    if (state_) state_->cancelled.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool cancel_requested() const {
    return state_ && state_->cancelled.load(std::memory_order_relaxed);
  }

  void set_deadline(Deadline d) {
    if (state_) state_->deadline = d;
  }
  [[nodiscard]] Deadline deadline() const {
    return state_ ? state_->deadline : Deadline{};
  }

  void set_budget(std::shared_ptr<ResourceBudget> b) {
    if (state_) state_->budget = std::move(b);
  }
  [[nodiscard]] ResourceBudget* budget() const {
    return state_ ? state_->budget.get() : nullptr;
  }

  /// True once any governance condition has tripped.
  [[nodiscard]] bool stopped() const {
    return state_ && detail::tripped(*state_);
  }

  /// Throw the precise governance Error if a condition has tripped.
  void rethrow_if_stopped() const {
    if (stopped()) detail::throw_stopped(*state_);
  }

  [[nodiscard]] const detail::TokenState* state() const {
    return state_.get();
  }

 private:
  std::shared_ptr<detail::TokenState> state_;
};

namespace gov {

namespace detail {
using psclip::par::detail::throw_stopped;
using psclip::par::detail::TokenState;
using psclip::par::detail::tripped;
// The installed token state for the current thread plus the amortization
// counter for clock reads. Raw pointer: ScopedToken guarantees the owning
// CancelToken outlives the installation scope, and the parallel layer
// captures tokens by value into task closures.
inline thread_local const TokenState* t_state = nullptr;
inline thread_local std::uint32_t t_tick = 0;

/// Clock-read stride: cancel/budget flags are checked every checkpoint
/// (one relaxed load each), the deadline every kStride-th. At ~1 µs per
/// scanbeam this bounds deadline overshoot to tens of microseconds while
/// keeping steady_clock::now() off the per-beam path.
inline constexpr std::uint32_t kStride = 32;
}  // namespace detail

/// Install `t`'s state for the current thread for the current scope.
/// Mirrors fault::ScopedKey; the parallel layer installs the submitter's
/// token inside every task body it runs.
class ScopedToken {
 public:
  explicit ScopedToken(const CancelToken& t) : prev_(detail::t_state) {
    detail::t_state = t.state();
  }
  ~ScopedToken() { detail::t_state = prev_; }
  ScopedToken(const ScopedToken&) = delete;
  ScopedToken& operator=(const ScopedToken&) = delete;

 private:
  const detail::TokenState* prev_;
};

/// The token installed on this thread, as a null-or-not test. Used by the
/// parallel layer to capture the current governance context into tasks.
[[nodiscard]] inline const psclip::par::detail::TokenState* current_state() {
  return detail::t_state;
}

/// Re-wrap an installed state for capture into a task closure. The shared
/// ownership lives in the CancelToken held by the caller of slab_clip et
/// al., which by contract outlives the parallel region.
class CapturedToken {
 public:
  CapturedToken() : state_(detail::t_state) {}
  [[nodiscard]] const psclip::par::detail::TokenState* state() const {
    return state_;
  }

 private:
  const psclip::par::detail::TokenState* state_;
};

/// Install a raw captured state (parallel-layer internal).
class ScopedState {
 public:
  explicit ScopedState(const psclip::par::detail::TokenState* s)
      : prev_(detail::t_state) {
    detail::t_state = s;
  }
  ~ScopedState() { detail::t_state = prev_; }
  ScopedState(const ScopedState&) = delete;
  ScopedState& operator=(const ScopedState&) = delete;

 private:
  const psclip::par::detail::TokenState* prev_;
};

/// Cooperative preemption point. Free (one thread_local load + null test)
/// when no token is installed; throws the precise governance Error when the
/// installed token has tripped. Deadline clock reads are amortized 1-in-32.
inline void checkpoint() {
  const auto* s = detail::t_state;
  if (!s) return;
  if (s->cancelled.load(std::memory_order_relaxed))
    detail::throw_stopped(*s);
  if (s->budget && s->budget->blown()) detail::throw_stopped(*s);
  if (s->deadline.armed() && ++detail::t_tick >= detail::kStride) {
    detail::t_tick = 0;
    if (s->deadline.expired()) detail::throw_stopped(*s);
  }
}

/// Throw the precise governance error for an explicitly captured state, if
/// tripped (parallel-layer aggregation: a governance trip must surface as
/// its precise error code, not be mangled into the kTaskFailure fold when
/// several workers tripped concurrently).
inline void rethrow_if_stopped(const psclip::par::detail::TokenState* s) {
  if (s && detail::tripped(*s)) detail::throw_stopped(*s);
}

/// Like checkpoint() but never skips the clock read — for coarse sites
/// (phase boundaries, slab-attempt entry) where precision beats amortizing.
inline void checkpoint_now() { rethrow_if_stopped(detail::t_state); }

/// The budget installed on this thread, or nullptr. Growth sites (arena
/// borrow, bound-table append, output-pool growth) charge against it.
[[nodiscard]] inline ResourceBudget* current_budget() {
  const auto* s = detail::t_state;
  return s ? s->budget.get() : nullptr;
}

/// RAII charge against the thread's installed budget: charges up front,
/// releases on destruction (including unwind), and supports growing the
/// charge as the governed structure grows. Charging failures throw
/// Error(kBudgetExceeded).
class ScopedCharge {
 public:
  ScopedCharge() : budget_(current_budget()) {}
  explicit ScopedCharge(std::uint64_t bytes) : budget_(current_budget()) {
    add(bytes);
  }
  ~ScopedCharge() {
    if (budget_ && held_) budget_->release(held_);
  }
  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;

  /// Grow the held charge by `bytes`.
  void add(std::uint64_t bytes) {
    if (!budget_ || bytes == 0) return;
    if (!budget_->try_charge(bytes))
      throw Error(ErrorCode::kBudgetExceeded,
                  "memory budget exceeded charging " + std::to_string(bytes) +
                      " bytes (limit " + std::to_string(budget_->limit()) +
                      ")");
    held_ += bytes;
  }

  /// Growth quantum for raise_to(): watermark raises touch the shared
  /// budget atomics only when they cross a 64 KiB boundary, so per-scanbeam
  /// output charging stays off the contended path (the 1% overhead gate of
  /// bench_governance_overhead). Worst-case over-charge: one granule per
  /// live ScopedCharge — noise at MB-scale budget limits.
  static constexpr std::uint64_t kGranule = 64 * 1024;

  /// Raise the held charge to at least `bytes` (monotonic watermark),
  /// quantized up to kGranule.
  void raise_to(std::uint64_t bytes) {
    if (bytes <= held_ || !budget_) return;
    add((bytes - held_ + kGranule - 1) / kGranule * kGranule);
  }

  [[nodiscard]] std::uint64_t held() const { return held_; }

 private:
  ResourceBudget* budget_;
  std::uint64_t held_ = 0;
};

}  // namespace gov
}  // namespace psclip::par
