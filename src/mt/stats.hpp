#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "error.hpp"

namespace psclip::mt {

/// Rung of the per-slab degradation ladder a slab ended on. Rungs are tried
/// in declaration order; each is strictly more conservative (and slower)
/// than the one before it.
enum class Rung : std::uint8_t {
  /// The fast path succeeded: the slab's window of the shared bound table
  /// swept on the thread's reused scratch (seq::thread_scratch).
  kHealthy = 0,
  /// Retry on safe settings, no reused scratch: the same cut swept on a fresh
  /// VattiScratch. Bit-identical output to the healthy path — the recovery
  /// rung for every transient or state-corruption fault.
  kRetrySafe,
  /// Final rung: the entire request recomputed by the sequential Vatti
  /// clipper, abandoning the slab decomposition (its output is
  /// vatti_clip's, with nothing to weld).
  kWholeInput,
  /// Terminal governance rung (Alg2Options::allow_partial): the slab was
  /// abandoned because the request's deadline, budget, or cancellation
  /// tripped — no further rung is attempted (time and memory lost in one
  /// slab are lost globally) and the slab's output is *missing* from the
  /// result, recorded in Alg2Stats::partial. Deliberately the deepest rung
  /// so worst_rung() surfaces partiality over any completed degradation.
  kPartialResult,
};

inline const char* to_string(Rung r) {
  switch (r) {
    case Rung::kHealthy: return "healthy";
    case Rung::kRetrySafe: return "retry-safe";
    case Rung::kWholeInput: return "whole-input";
    case Rung::kPartialResult: return "partial-result";
  }
  return "?";
}

/// Per-slab record of how far down the degradation ladder a slab went.
/// All-healthy runs record rung == kHealthy and attempts == 1 everywhere.
struct DegradationReport {
  Rung rung = Rung::kHealthy;
  /// Total attempts made for this slab, including the successful one.
  std::uint32_t attempts = 1;
  /// Code of the *first* failure (meaningful when rung != kHealthy).
  ErrorCode cause = ErrorCode::kSlabFailure;
  /// Message of the first failure (empty when healthy).
  std::string message;
};

/// Per-phase timings for Algorithm 2, matching the breakdown the paper
/// reports in Fig. 9 (partitioning = Steps 4–5, clipping = Step 6,
/// merging = Step 8).
///
/// Wall and CPU are reported separately because the phases run on many
/// workers at once: `partition`/`clip`/`merge` are *wall-clock* sections of
/// the calling thread (they sum to roughly the run's elapsed time), while
/// the `*_cpu` fields sum the per-thread CPU time actually spent in that
/// phase across all threads (clip_cpu == Σ SlabLoad::cpu_seconds). Every
/// field is filled from par::PhaseClock readings, the ones the phase spans
/// carry as `cpu_ns`.
struct PhaseTimes {
  double partition = 0.0;  ///< wall: prepare + shared table + slab index
  double clip = 0.0;       ///< wall: the whole parallel slab section
  double merge = 0.0;      ///< wall: the seam weld
  /// cpu: the setup on every thread — the caller's thread clock plus the
  /// chunks pool helpers ran for its loops (par::CpuMeter) — plus Σ
  /// per-slab partition work.
  double partition_cpu = 0.0;
  double clip_cpu = 0.0;       ///< cpu: Σ per-slab sequential clip time
  /// cpu: the weld on the caller plus the chunks pool helpers ran for it
  double merge_cpu = 0.0;

  /// Wall-clock total (the paper's Fig. 9 stack height).
  [[nodiscard]] double total() const { return partition + clip + merge; }
  /// Total CPU seconds charged to the three phases.
  [[nodiscard]] double total_cpu() const {
    return partition_cpu + clip_cpu + merge_cpu;
  }
};

/// Per-slab work record, the raw material for the paper's load-imbalance
/// discussion (Fig. 11).
struct SlabLoad {
  double seconds = 0.0;      ///< clip wall time of this slab
  /// Clip CPU time of this slab: thread CPU clock (par::PhaseClock), so
  /// time the worker was descheduled — other workers timesharing the core —
  /// is not charged. This, not `seconds`, is what sums into
  /// PhaseTimes::clip_cpu and what the bench_slab_scaling inflation gate
  /// measures.
  double cpu_seconds = 0.0;
  /// Bound edges the sequential clipper actually swept for this slab — the
  /// post-partition, post-cleaning edge count (VattiStats::edges), i.e. the
  /// work the slab's Step 6 really did, not the raw vertex count handed in.
  std::int64_t input_edges = 0;
  std::int64_t output_vertices = 0;
  /// Work of the *partition* step for this slab, in bound edges read: its
  /// seeds (the edges crossing its bottom line) plus the edges the binary
  /// searches along the chains read to find them — 0 for a one-slab run,
  /// whose sweep reads the table once (input_edges). The paper's per-slab
  /// rectangle clipping read the whole input per slab. Deterministic (no
  /// timing noise), which makes it the CI-gateable partition metric.
  std::int64_t touched_edges = 0;
  /// Seed edges the slab's sweep started from: the edges crossing its
  /// bottom line (see seq::SweepWindow).
  std::int64_t boundary_edges = 0;
  /// Approximate peak bytes resident in the scratch that served this
  /// slab's successful attempt (seq::VattiScratch::resident_bytes),
  /// sampled right after the attempt. Capacity-based:
  /// a thread's reused scratch keeps capacity across slabs and clips, so
  /// it reports the high-water mark of everything that thread swept. The
  /// memory budget charges the window's working set by size instead
  /// (seq::window_bytes, DESIGN.md §11).
  std::int64_t peak_arena_bytes = 0;
};

/// Per-worker scheduling record for one Algorithm 2 run: how much slab
/// work each worker actually executed. The last entry (index == pool size)
/// is the calling thread, which drives slab tasks alongside the workers.
struct WorkerLoad {
  std::uint64_t slab_jobs = 0;  ///< slab tasks this worker executed
  double busy_seconds = 0.0;    ///< sum of executed slab partition+clip time
  double idle_seconds = 0.0;    ///< pool idle-time delta over the run
};

/// Contiguous run of slabs missing from a partial result, plus the y-range
/// they cover — enough for a caller to re-issue exactly the missing strip
/// as a follow-up request.
struct MissingSlabRange {
  std::size_t first = 0;  ///< first missing slab index (inclusive)
  std::size_t last = 0;   ///< last missing slab index (inclusive)
  double y_lo = 0.0;      ///< bottom of the missing strip
  double y_hi = 0.0;      ///< top of the missing strip
};

/// What a partial result (Rung::kPartialResult under
/// Alg2Options::allow_partial) is missing and why. `partial` is false for
/// every complete result, including degraded-but-complete ones.
struct PartialReport {
  bool partial = false;
  std::vector<MissingSlabRange> missing;
  /// Governance code that stopped the first abandoned slab (kCancelled,
  /// kDeadlineExceeded or kBudgetExceeded).
  ErrorCode cause = ErrorCode::kDeadlineExceeded;
  std::string message;  ///< first governance failure's message

  [[nodiscard]] std::size_t missing_slabs() const {
    std::size_t n = 0;
    for (const auto& r : missing) n += r.last - r.first + 1;
    return n;
  }
};

/// Full instrumentation for one Algorithm 2 run.
struct Alg2Stats {
  PhaseTimes phases;
  std::vector<SlabLoad> slabs;
  std::vector<WorkerLoad> workers;  ///< slab scheduler only (see WorkerLoad)
  /// Per-slab fault-isolation record, index-aligned with `slabs`. When the
  /// whole-input fallback fired, every entry reports Rung::kWholeInput.
  std::vector<DegradationReport> degradation;
  /// Governance outcome: which slabs (if any) are missing from the result.
  PartialReport partial;
  std::int64_t output_contours = 0;
  /// Duplicate outputs the paper's replicate-and-dedup scheme dropped; the
  /// engine never replicates and leaves it 0 (the reproduction benches'
  /// replicate helper fills it).
  std::int64_t duplicates_removed = 0;

  /// Number of slabs that did not complete on the healthy fast path.
  [[nodiscard]] std::int64_t degraded_slabs() const {
    std::int64_t n = 0;
    for (const auto& d : degradation)
      if (d.rung != Rung::kHealthy) ++n;
    return n;
  }

  /// Deepest ladder rung any slab reached in this run.
  [[nodiscard]] Rung worst_rung() const {
    Rung worst = Rung::kHealthy;
    for (const auto& d : degradation)
      if (d.rung > worst) worst = d.rung;
    return worst;
  }

  /// max(slab time) / mean(slab time): 1.0 = perfectly balanced.
  [[nodiscard]] double load_imbalance() const {
    if (slabs.empty()) return 1.0;
    double sum = 0.0, mx = 0.0;
    for (const auto& s : slabs) {
      sum += s.seconds;
      if (s.seconds > mx) mx = s.seconds;
    }
    const double mean = sum / static_cast<double>(slabs.size());
    return mean > 0.0 ? mx / mean : 1.0;
  }

  /// Clip-phase speedup the decomposition would achieve with one core per
  /// slab: sum(slab time) / max(slab time). Hardware-independent — this
  /// is the quantity whose *shape* must match the paper's scaling figures
  /// regardless of how many cores the host actually has.
  [[nodiscard]] double ideal_speedup() const {
    if (slabs.empty()) return 1.0;
    double sum = 0.0, mx = 0.0;
    for (const auto& s : slabs) {
      sum += s.seconds;
      if (s.seconds > mx) mx = s.seconds;
    }
    return mx > 0.0 ? sum / mx : 1.0;
  }

  /// max(worker busy time) / mean(worker busy time) over workers that could
  /// run slab jobs: 1.0 = every worker spent the same time clipping. This is
  /// the quantity dynamic slab scheduling improves — slab times stay
  /// skewed (Fig. 11), but over-partitioning + handing out one slab at a
  /// time spreads them evenly across workers.
  [[nodiscard]] double worker_imbalance() const {
    if (workers.empty()) return 1.0;
    double sum = 0.0, mx = 0.0;
    for (const auto& w : workers) {
      sum += w.busy_seconds;
      if (w.busy_seconds > mx) mx = w.busy_seconds;
    }
    const double mean = sum / static_cast<double>(workers.size());
    return mean > 0.0 ? mx / mean : 1.0;
  }
};

}  // namespace psclip::mt
