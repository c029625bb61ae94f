#pragma once

#include "geom/bool_op.hpp"
#include "geom/polygon.hpp"
#include "mt/algorithm2.hpp"
#include "mt/stats.hpp"
#include "parallel/thread_pool.hpp"

namespace psclip::mt {

/// How polygons are distributed over slabs in the two-sets clipper.
enum class MultisetAssign {
  /// Choose per operator: kSubjectOwner for intersection/difference,
  /// kBlockClosure for union/xor. Always exact.
  kAuto,
  /// Each *subject* polygon is owned by exactly one slab (the slab of its
  /// MBR midpoint); clip polygons are replicated into every slab whose
  /// subjects they can reach. Exact for intersection and difference of
  /// GIS-style layers (no within-layer overlap), no duplicate outputs,
  /// and no work replication — each pair is clipped exactly once.
  kSubjectOwner,
  /// The paper's scheme: replicate any polygon into every slab its MBR
  /// y-range overlaps, clip per slab, drop duplicate outputs. Exact for
  /// intersection; for union, clusters of polygons that span a slab
  /// boundary can merge with different partners in different slabs (the
  /// same implicit assumption the paper's union runs make).
  kReplicate,
  /// Replication extended transitively ("the local event list is
  /// readjusted such that no polygon is partially contained in a given
  /// slab"): slabs grow to whole blocks of chained MBR y-intervals.
  /// Exact for every operator, but chained data (interleaved layers,
  /// tiling polygons) can collapse many slabs into one block, limiting
  /// parallelism — the price of exact parallel union under replication.
  kBlockClosure,
};

const char* to_string(MultisetAssign a);

/// Options for the two-sets-of-polygons variant of Algorithm 2 (paper
/// §IV, last paragraph). Its degradation ladder is retry-safe → whole-input
/// recompute (SlabEngineOptions::isolate_faults).
struct MultisetOptions : SlabEngineOptions {
  unsigned slabs = 0;  ///< 0 = pool thread count
  MultisetAssign assign = MultisetAssign::kAuto;
  /// Fused slab-local bound construction (default on): every polygon is
  /// prepared (clean + coalesce + perturb + bound decomposition + schedule
  /// run) once globally, and each slab task concatenates the prepared
  /// fragments of its assigned polygons straight into the worker arena's
  /// bound table — no per-slab contour copies, no per-slab re-preparation,
  /// and the scanbeam schedule is a linear run merge instead of a sort.
  /// Replication assigns whole polygons (never split), so a slab's bound
  /// table is bit-identical to what a materializing vatti_clip would have
  /// rebuilt; output is byte-identical either way. Off reproduces the
  /// copy-then-rederive baseline for ablation.
  bool fused = true;
};

/// Clip two *sets* of polygons (e.g. two GIS layers) — the paper's
/// Pthreads version: MBR y-extents form the event list, it is cut into
/// p slabs with roughly equal event counts, polygons are distributed to
/// slabs per `MultisetAssign` (replicated, never split), each slab pair
/// is clipped sequentially with the Vatti clipper, all slabs in parallel,
/// and redundant outputs from replicated pairs are removed afterwards.
///
/// Assumes layers in the GIS sense: polygons within one input do not
/// overlap each other (their union interiors are disjoint).
geom::PolygonSet multiset_clip(const geom::PolygonSet& subject,
                               const geom::PolygonSet& clip, geom::BoolOp op,
                               par::ThreadPool& pool,
                               const MultisetOptions& opts = {},
                               Alg2Stats* stats = nullptr);

}  // namespace psclip::mt
