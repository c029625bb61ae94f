#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "seq/vatti.hpp"

namespace psclip::mt {

/// Reusable scratch owned by one executing thread, handed out by
/// worker_arena(). A slab task borrows the arena for its whole run — the
/// Vatti sweep scratch (scanbeam list, the SoA active edge table with its
/// beam-bottom/beam-top x arrays and flat edge-id position index, output
/// pool, per-beam intersection buffers, minima staging + merge buffers,
/// and the bound table multiset_clip assembles per slab) plus the
/// boundaries of the fragment schedules multiset_clip's fused path
/// merges. Because slab tasks on one thread run strictly one after
/// another, nothing here needs synchronization; buffers are cleared
/// (capacity retained) at each use site rather than reallocated, so a
/// worker that clips many slabs touches the allocator only while its
/// high-water marks are still growing.
struct SlabArena {
  seq::VattiScratch vatti;  ///< sweep-structure pools
  /// Run boundaries for multiset_clip's merge_sorted_runs_unique over the
  /// scratch schedule (scratch_schedule(vatti)): one run per prepared
  /// fragment, each the fragment's own sort-built schedule.
  std::vector<std::size_t> run_end;
  std::uint64_t tasks_served = 0;  ///< slab tasks run on this arena

  /// Approximate bytes resident in this arena (capacity-based, like
  /// seq::VattiScratch::resident_bytes): the per-worker high-water mark the
  /// memory-budget model charges and SlabLoad::peak_arena_bytes reports.
  [[nodiscard]] std::size_t resident_bytes() const {
    return vatti.resident_bytes() + run_end.capacity() * sizeof(std::size_t);
  }
};

/// The calling thread's slab arena (created on first use, then reused for
/// every subsequent slab task this thread executes, across all clips and
/// pools for the life of the process).
SlabArena& worker_arena();

/// Number of distinct arenas created so far == distinct threads that have
/// executed slab tasks. Exposed for tests.
std::size_t worker_arena_count();

}  // namespace psclip::mt
