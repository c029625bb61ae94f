#pragma once

#include <cstddef>

#include "seq/vatti.hpp"

namespace psclip::mt {

/// The calling thread's slab arena: the Vatti sweep scratch (scanbeam
/// list, the SoA active edge table with its beam-bottom/beam-top x arrays
/// and flat edge-id position index, output pool, per-beam intersection
/// buffers, minima staging + merge buffers) a slab task borrows for its
/// whole run. Created on first use, then reused for every subsequent slab
/// task this thread executes, across all clips and pools for the life of
/// the process. Because slab tasks on one thread run strictly one after
/// another, nothing here needs synchronization; buffers are cleared
/// (capacity retained) at each use site rather than reallocated, so a
/// worker that clips many slabs touches the allocator only while its
/// high-water marks are still growing.
seq::VattiScratch& worker_arena();

/// Number of distinct arenas created so far == distinct threads that have
/// executed slab tasks. Exposed for tests.
std::size_t worker_arena_count();

}  // namespace psclip::mt
