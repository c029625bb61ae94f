#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace psclip::par {

/// Per-thread slot store for reusable scratch arenas.
///
/// `local()` returns a T owned by the pair (this WorkerLocal instance,
/// calling thread). ThreadPool workers are long-lived threads, so a worker
/// that executes many slab tasks gets the same T back every time and its
/// internal buffers stay warm across tasks, since ownership follows the
/// *executing* thread, not the submitting one. External threads (e.g. a
/// parallel_for caller driving its own chunks) get their own slot, so two
/// pools, or two concurrent parallel regions on
/// one pool, never hand the same T to two threads: no synchronization is
/// needed inside T and no locks are taken on the local() fast path beyond
/// one thread-local hash lookup.
///
/// Intended for instances with program lifetime (function-local statics):
/// a slot created by a thread stays registered until the WorkerLocal dies,
/// and a thread keeps its map entry until the thread exits.
template <typename T>
class WorkerLocal {
 public:
  /// The calling thread's T, created on first use.
  T& local() {
    thread_local std::unordered_map<std::uint64_t, std::shared_ptr<T>> slots;
    std::shared_ptr<T>& slot = slots[id_];
    if (!slot) {
      slot = std::make_shared<T>();
      std::lock_guard lk(mu_);
      all_.push_back(slot);
    }
    return *slot;
  }

  /// Number of distinct threads that have called local() so far.
  [[nodiscard]] std::size_t slots() const {
    std::lock_guard lk(mu_);
    return all_.size();
  }

  /// Visit every slot created so far (for aggregate statistics). Takes the
  /// registry lock; must not race with owners mutating their slots — call
  /// from quiescent points (e.g. after parallel_for returns).
  template <typename F>
  void for_each(F&& f) const {
    std::lock_guard lk(mu_);
    for (const auto& s : all_) f(*s);
  }

 private:
  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> n{0};
    return n.fetch_add(1, std::memory_order_relaxed);
  }

  const std::uint64_t id_ = next_id();
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<T>> all_;
};

}  // namespace psclip::par
