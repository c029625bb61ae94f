#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "geom/polygon.hpp"
#include "obs/trace.hpp"
#include "parallel/cancel.hpp"
#include "seq/bounds.hpp"

namespace psclip::svc {

/// Configuration for PreparedCache.
struct PreparedCacheConfig {
  /// Resident-byte ceiling the LRU enforces itself: inserting past it
  /// evicts least-recently-used entries first. 0 disables caching entirely
  /// (every lookup prepares locally and stores nothing) — the cache-off
  /// mode with the same code path.
  std::uint64_t byte_limit = 64ull << 20;
  /// Optional external meter the resident bytes are charged through
  /// (ResourceBudget, DESIGN.md §11): entries release their charge on
  /// eviction, so the meter always reads the cache's true residency. When
  /// the budget is tighter than `byte_limit`, the cache evicts down to what
  /// fits BEFORE committing a charge — a dedicated cache budget is never
  /// blown; an entry that cannot fit even in an empty cache is served
  /// uncached (a bypass), not an error.
  std::shared_ptr<par::ResourceBudget> budget;
  /// Hit/miss/eviction/bypass counters and the resident-bytes gauge are
  /// exported here (svc.cache.*). Null = metrics off.
  obs::TraceSink* sink = nullptr;
  /// Digest override (tests only): defaults to seq::contour_digest. The
  /// collision-hygiene tests install a truncated digest to force distinct
  /// contours onto one key and assert the byte comparison still misses.
  std::uint64_t (*digest_fn)(const geom::Contour&, bool is_clip) = nullptr;
};

/// Content-addressed cross-request cache of prepared contours — the
/// seq::PreparedSource the slab engine consumes
/// (Alg2Options::prepared_cache) and the reuse layer of svc::ClipService.
///
/// Keying: FNV-1a digest of the contour's coordinate bit patterns plus the
/// prepare options (seq::contour_digest). A digest match alone is never
/// trusted: the entry stores the original vertex bytes and a lookup
/// compares them exactly, so a 64-bit collision degrades to a miss, never
/// to wrong geometry. Values are shared immutable seq::PreparedContour
/// fragments — concurrent requests append the same fragment into their
/// slab tables while the LRU evicts freely, the shared_ptr keeping any
/// still-referenced fragment alive past its entry.
///
/// Thread-safety: all state is guarded by one mutex; preparation on a miss
/// runs outside it so concurrent misses on different contours prepare in
/// parallel (two racing misses on the SAME contour both prepare and the
/// loser adopts the winner's entry — identical bytes by determinism of
/// seq::prepare_contour, so no reader can observe a difference).
class PreparedCache final : public seq::PreparedSource {
 public:
  explicit PreparedCache(PreparedCacheConfig cfg = {});
  ~PreparedCache() override;

  PreparedCache(const PreparedCache&) = delete;
  PreparedCache& operator=(const PreparedCache&) = delete;

  /// seq::PreparedSource: the fragment prepare_contour(c, is_clip) would
  /// produce, from cache or freshly prepared; null when the contour
  /// degenerates (negative results are cached too).
  std::shared_ptr<const seq::PreparedContour> prepared(
      const geom::Contour& c, bool is_clip) override;

  /// Drop every entry (and release the budget charges).
  void clear();

  // Meter accessors (tests, bench, CLI reporting).
  [[nodiscard]] std::uint64_t hits() const { return hits_.load(); }
  [[nodiscard]] std::uint64_t misses() const { return misses_.load(); }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_.load(); }
  /// Lookups whose digest matched an entry with different bytes (the
  /// collision-hygiene path; counted inside misses() too).
  [[nodiscard]] std::uint64_t collisions() const { return collisions_.load(); }
  /// Prepared-but-not-stored results (entry larger than the budget/limit
  /// allows even after evicting everything).
  [[nodiscard]] std::uint64_t bypasses() const { return bypasses_.load(); }
  [[nodiscard]] std::uint64_t resident_bytes() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const PreparedCacheConfig& config() const { return cfg_; }

 private:
  struct Entry {
    std::uint64_t digest = 0;
    std::vector<geom::Point> key_pts;  ///< original bytes, collision check
    bool is_clip = false;
    std::shared_ptr<const seq::PreparedContour> value;  ///< null = degenerate
    std::uint64_t bytes = 0;
  };
  using Lru = std::list<Entry>;

  /// Evict the LRU tail entry. Caller holds mu_.
  void evict_one_locked();
  /// Update the resident-bytes gauge. Caller holds mu_.
  void publish_gauge_locked();

  PreparedCacheConfig cfg_;
  mutable std::mutex mu_;
  Lru lru_;  ///< front = most recently used
  std::unordered_multimap<std::uint64_t, Lru::iterator> index_;
  std::uint64_t resident_ = 0;
  std::atomic<std::uint64_t> hits_{0}, misses_{0}, evictions_{0},
      collisions_{0}, bypasses_{0};
};

}  // namespace psclip::svc
