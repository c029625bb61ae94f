#include "seq/bounds.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "geom/perturb.hpp"

namespace psclip::seq {
namespace {

double slope(const geom::Point& bot, const geom::Point& top) {
  return (top.x - bot.x) / (top.y - bot.y);
}

/// Schedules at least this long sort by radix; shorter ones by std::sort.
/// The two cross at ~150 values (Release, 4-vCPU x86 VM, one pinned core,
/// 64 distinct synthetic_pair schedules per size, each sorted once per
/// repetition, radix in a vector with room for its buffer): std::sort is
/// faster up to ~125 values (a 60-edge pair's: 2.4-2.7 vs 2.9-3.4 us),
/// radix from ~170 (an 80-edge pair's: 3.6-4.1 vs 4.0-4.5 us; a 300-edge
/// pair's 680: 14-15 vs 22-24 us; a 1000-edge pair's 2.4k: 51-71 vs
/// 90-98 us). Re-sorting one input over and over instead lets the branch
/// predictor learn std::sort's comparisons and puts the crossover near 3k
/// values, which schedules, each sorted once, never see.
constexpr std::size_t kRadixSortMin = 160;

/// Sorts NaN-free doubles ascending by an LSD radix sort over their bit
/// patterns, mapped so unsigned order is numeric order (-0.0 just before
/// +0.0): eight byte-wide counting passes, each skipped when every key
/// shares its byte. O(n) — about 2x faster than std::sort on a giant
/// contour's schedule. The keys stay in v's slots; the passes alternate
/// with a buffer of n, v's own tail when its capacity holds 2n (a reused
/// schedule vector, so the sort allocates nothing), else a new vector.
void radix_sort(std::vector<double>& v) {
  const std::size_t n = v.size();
  if (n == 0) return;
  const auto get = [](const double& d) {
    std::uint64_t k;
    std::memcpy(&k, &d, sizeof k);
    return k;
  };
  const auto put = [](double& d, std::uint64_t k) {
    std::memcpy(&d, &k, sizeof k);
  };
  std::vector<double> own;
  if (v.capacity() >= 2 * n)
    v.resize(2 * n);
  else
    own.resize(n);
  double* keys = v.data();
  double* tmp = own.empty() ? keys + n : own.data();
  std::array<std::array<std::uint32_t, 256>, 8> count{};
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t k = get(keys[i]);
    k ^= (k >> 63) != 0 ? ~std::uint64_t{0} : std::uint64_t{1} << 63;
    put(keys[i], k);
    for (int d = 0; d < 8; ++d) ++count[d][(k >> (8 * d)) & 0xff];
  }
  for (int d = 0; d < 8; ++d) {
    auto& c = count[d];
    if (c[(get(keys[0]) >> (8 * d)) & 0xff] == n) continue;  // one bucket
    std::uint32_t sum = 0;
    for (std::uint32_t& x : c) sum += std::exchange(x, sum);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = get(keys[i]);
      put(tmp[c[(k >> (8 * d)) & 0xff]++], k);
    }
    std::swap(keys, tmp);
  }
  double* const out = v.data();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = get(keys[i]);
    out[i] = std::bit_cast<double>(
        k ^ ((k >> 63) != 0 ? std::uint64_t{1} << 63 : ~std::uint64_t{0}));
  }
  v.resize(n);
}

/// The first zero ordinate met walking each bound from its minimum up,
/// bounds in minima order, left head first. `bt` must hold a zero.
double first_zero_in_bound_order(const BoundTable& bt) {
  for (const LocalMin& lm : bt.minima) {
    if (lm.pt.y == 0.0) return lm.pt.y;
    for (const std::int32_t head : {lm.edge_left, lm.edge_right})
      for (std::int32_t e = head; e >= 0;
           e = bt.edges[static_cast<std::size_t>(e)].next)
        if (bt.edges[static_cast<std::size_t>(e)].top.y == 0.0)
          return bt.edges[static_cast<std::size_t>(e)].top.y;
  }
  return 0.0;
}

}  // namespace

namespace {

/// Vertex-index view of one contour for the bound decomposition (indices
/// in [0, n), stepping round the ring without a division).
struct Ring {
  const geom::Contour& c;
  std::size_t n;
  const geom::Point& at(std::size_t i) const { return c[i]; }
  std::size_t next(std::size_t i) const { return i + 1 == n ? 0 : i + 1; }
  std::size_t prev(std::size_t i) const { return i == 0 ? n - 1 : i - 1; }
  /// The contour edge i -> i+1 rises.
  bool rises(std::size_t i) const { return c[next(i)].y > c[i].y; }
  /// The contour edge i-1 -> i falls (walked backward it rises).
  bool falls_into(std::size_t i) const { return c[prev(i)].y > c[i].y; }
  bool is_min(std::size_t i) const { return falls_into(i) && rises(i); }
};

}  // namespace

void append_bounds(BoundTable& bt, const geom::Contour& c, bool is_clip) {
  const Ring r{c, c.size()};
  if (r.n < 3) return;
  // Walk one ascending chain from vertex `from`, stepping with `step`
  // while `rising` holds; returns the id of the first edge and links the
  // chain.
  auto emit_chain = [&](std::size_t from, auto rising, auto step) {
    std::int32_t first = -1, prev = -1;
    for (std::size_t i = from; rising(i); i = step(i)) {
      BoundEdge e;
      e.bot = r.at(i);
      e.top = r.at(step(i));
      e.dxdy = slope(e.bot, e.top);
      e.is_clip = is_clip;
      const auto id = static_cast<std::int32_t>(bt.edges.size());
      bt.edges.push_back(e);
      if (prev >= 0) bt.edges[static_cast<std::size_t>(prev)].next = id;
      if (first < 0) first = id;
      prev = id;
    }
    return first;
  };
  const auto forward = [&r](std::size_t i) { return r.next(i); };
  const auto backward = [&r](std::size_t i) { return r.prev(i); };
  const auto rises = [&r](std::size_t i) { return r.rises(i); };
  const auto falls_into = [&r](std::size_t i) { return r.falls_into(i); };
  for (std::size_t i = 0; i < r.n; ++i) {
    if (!r.is_min(i)) continue;
    LocalMin lm;
    lm.pt = r.at(i);
    const std::int32_t fwd = emit_chain(i, rises, forward);
    const std::int32_t bwd = emit_chain(i, falls_into, backward);
    // Order the two bound heads left/right by slope: going up from the
    // shared minimum, the edge with smaller dx/dy lies to the left.
    if (bt.edges[static_cast<std::size_t>(fwd)].dxdy <=
        bt.edges[static_cast<std::size_t>(bwd)].dxdy) {
      lm.edge_left = fwd;
      lm.edge_right = bwd;
    } else {
      lm.edge_left = bwd;
      lm.edge_right = fwd;
    }
    bt.minima.push_back(lm);
  }
}

BoundTable build_bounds(const geom::PolygonSet& subject,
                        const geom::PolygonSet& clip) {
  BoundTable bt;
  std::vector<double> ys;
  geom::Contour prep;
  build_bounds_into(bt, ys, subject, clip, prep);
  return bt;
}

void sort_minima(BoundTable& bt) {
  std::sort(bt.minima.begin(), bt.minima.end(),
            [](const LocalMin& a, const LocalMin& b) {
              return a.pt.y < b.pt.y || (a.pt.y == b.pt.y && a.pt.x < b.pt.x);
            });
}

void build_bounds_into(BoundTable& bt, std::vector<double>& ys,
                       const geom::PolygonSet& subject,
                       const geom::PolygonSet& clip, geom::Contour& prep) {
  bt.edges.clear();
  bt.minima.clear();
  for (const auto& c : subject.contours)
    if (prepare_contour_points(c, prep))
      append_bounds(bt, prep, /*is_clip=*/false);
  for (const auto& c : clip.contours)
    if (prepare_contour_points(c, prep))
      append_bounds(bt, prep, /*is_clip=*/true);
  sort_minima(bt);
  // A schedule long enough to radix-sort gets room for the sort's buffer
  // in ys's own tail: a reused ys then builds it without allocating.
  if (const std::size_t n = bt.edges.size() + bt.minima.size();
      n >= kRadixSortMin)
    ys.reserve(2 * n);
  scanbeam_ys_merged_into(bt, ys);
}

int coalesce_horizontal_runs(geom::Contour& c) {
  int removed = 0;
  // Restart after each removal: a drop can expose a new coalescable triple
  // spanning the gap. Runs are short (one vertex per boundary cut), so the
  // quadratic worst case never materializes in practice.
  for (bool changed = true; changed && c.pts.size() >= 3;) {
    changed = false;
    const std::size_t n = c.pts.size();
    for (std::size_t i = 0; i < n; ++i) {
      const geom::Point& prev = c[(i + n - 1) % n];
      const geom::Point& cur = c[i];
      const geom::Point& next = c[(i + 1) % n];
      if (prev.y == cur.y && cur.y == next.y &&
          ((prev.x < cur.x && cur.x < next.x) ||
           (next.x < cur.x && cur.x < prev.x))) {
        c.pts.erase(c.pts.begin() + static_cast<std::ptrdiff_t>(i));
        ++removed;
        changed = true;
        break;
      }
    }
  }
  return removed;
}

bool prepare_contour_points(const geom::Contour& in, geom::Contour& out) {
  geom::cleaned_contour_into(in, out);
  if (out.pts.size() < 3) return false;
  coalesce_horizontal_runs(out);
  if (out.pts.size() < 3) return false;
  geom::remove_horizontals(out);
  return true;
}

bool prepare_contour(const geom::Contour& in, bool is_clip,
                     PreparedContour& out) {
  out.bt.edges.clear();
  out.bt.minima.clear();
  out.ys.clear();
  out.finite = true;
  if (!prepare_contour_points(in, out.pts)) return false;
  out.finite = geom::is_finite(out.pts);
  // Every edge lies in at most one bound: one allocation, no regrowth.
  out.bt.edges.reserve(out.pts.size());
  out.bt.minima.reserve(out.pts.size() / 2);
  append_bounds(out.bt, out.pts, is_clip);
  scanbeam_ys_merged_into(out.bt, out.ys);
  return true;
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t basis) {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = basis;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kPrime;
  }
  return h;
}

std::uint64_t contour_digest(const geom::Contour& c, bool is_clip) {
  // Hash the coordinate doubles' bit patterns, not the Point structs, so
  // padding bytes can never leak into the key. -0.0 and 0.0 digest
  // differently on purpose: perturbation is a function of the bit pattern.
  std::uint64_t h = kFnvBasis;
  for (const geom::Point& pt : c.pts) {
    h = fnv1a(&pt.x, sizeof pt.x, h);
    h = fnv1a(&pt.y, sizeof pt.y, h);
  }
  const std::uint64_t n = c.pts.size();
  h = fnv1a(&n, sizeof n, h);
  const unsigned char clip_byte = is_clip ? 1 : 0;
  h = fnv1a(&clip_byte, sizeof clip_byte, h);
  h = fnv1a(&kPrepareDigestVersion, sizeof kPrepareDigestVersion, h);
  return h;
}

void scanbeam_ys_merged_into(const BoundTable& bt, std::vector<double>& ys) {
  ys.clear();
  ys.reserve(bt.edges.size() + bt.minima.size());
  // Every edge's bot is a minimum or the top of the edge below it, so the
  // minima ys and the edge tops cover every distinct endpoint y. None is
  // NaN: a NaN ordinate fails every rise test, so it ends up in no bound.
  for (const LocalMin& lm : bt.minima) ys.push_back(lm.pt.y);
  for (const BoundEdge& e : bt.edges) ys.push_back(e.top.y);
  if (ys.size() >= kRadixSortMin)
    radix_sort(ys);
  else
    std::sort(ys.begin(), ys.end());
  // -0.0 == +0.0, so which zero survives unique depends on the sort. Keep
  // the one the per-bound order meets first — each bound's minimum y, then
  // its tops, bounds in minima order (left head first) — so the schedule's
  // bits do not depend on the sort algorithm.
  const auto [z0, z1] = std::equal_range(ys.begin(), ys.end(), 0.0);
  if (z0 != z1 && std::any_of(z0 + 1, z1, [&](double z) {
        return std::signbit(z) != std::signbit(*z0);
      }))
    *z0 = first_zero_in_bound_order(bt);
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
}

void merge_sorted_runs_unique(std::vector<double>& ys,
                              std::vector<std::size_t>& run_end,
                              std::vector<double>& buf) {
  // Bottom-up pairwise merges: O(total · log(runs)), sequential streaming
  // passes over already-ordered data. Each level merges from one vector
  // into the other; the run ends compact in place (entry r of the next
  // level is written only after entries up to 2r + 2 were read).
  buf.resize(ys.size());
  double* from = ys.data();
  double* to = buf.data();
  while (run_end.size() > 2) {
    std::size_t runs = 1, i = 0;
    for (; i + 2 < run_end.size(); i += 2) {
      std::merge(from + run_end[i], from + run_end[i + 1],
                 from + run_end[i + 1], from + run_end[i + 2],
                 to + run_end[i]);
      run_end[runs++] = run_end[i + 2];
    }
    if (i + 1 < run_end.size()) {
      std::copy(from + run_end[i], from + run_end[i + 1], to + run_end[i]);
      run_end[runs++] = run_end[i + 1];
    }
    run_end.resize(runs);
    std::swap(from, to);
  }
  if (from != ys.data()) ys.swap(buf);
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
}

}  // namespace psclip::seq
