#include "mt/slab_index.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "parallel/scan.hpp"

namespace psclip::mt {

std::vector<double> slab_lines(std::span<const double> ys, unsigned slabs) {
  std::vector<double> lines;
  const std::size_t n = ys.size();
  if (slabs < 2) return lines;
  lines.reserve(slabs - 1);
  for (unsigned t = 1; t < slabs; ++t) {
    const std::size_t cut = t * n / slabs;
    if (cut == 0 || cut >= n) continue;
    const double lo = ys[cut - 1], hi = ys[cut];
    // lo + half the gap, not (lo + hi) / 2: no overflow for huge ordinates.
    // Adjacent doubles have no value strictly between them; such a cut is
    // skipped rather than placed on a vertex.
    const double b = lo + 0.5 * (hi - lo);
    if (!(lo < b && b < hi)) continue;
    if (!lines.empty() && !(lines.back() < b)) continue;
    lines.push_back(b);
  }
  return lines;
}

std::vector<std::int32_t> bound_heads(const seq::BoundTable& bt) {
  std::vector<std::int32_t> heads;
  heads.reserve(bt.minima.size() * 2);
  for (const seq::LocalMin& lm : bt.minima) {
    heads.push_back(std::min(lm.edge_left, lm.edge_right));
    heads.push_back(std::max(lm.edge_left, lm.edge_right));
  }
  return heads;
}

SlabIndex build_slab_index(par::ThreadPool& pool, const seq::BoundTable& bt,
                           std::span<const std::int32_t> heads,
                           std::span<const double> ys, unsigned slabs) {
  SlabIndex idx;
  idx.lines = slab_lines(ys, slabs);
  const std::size_t nlines = idx.lines.size();
  idx.offsets.assign(nlines + 1, 0);
  idx.probes.assign(nlines, 0);
  if (nlines == 0 || bt.edges.empty()) return idx;

  // Bounds: the ascending heads split the edge array into bounds.
  assert(std::is_sorted(heads.begin(), heads.end()));
  const std::size_t nbounds = heads.size();
  const auto nedges = static_cast<std::int32_t>(bt.edges.size());
  auto bound_end = [&](std::size_t k) {
    return k + 1 < nbounds ? heads[k + 1] : nedges;
  };
  const std::span<const double> lines = idx.lines;
  // Lines strictly inside the bound's y-extent, [first, last).
  auto crossed = [&](std::size_t k) {
    const auto s = static_cast<std::size_t>(heads[k]);
    const auto e = static_cast<std::size_t>(bound_end(k));
    assert(bt.edges[e - 1].next < 0);
    const double lo_y = bt.edges[s].bot.y;
    const double hi_y = bt.edges[e - 1].top.y;
    const auto first = static_cast<std::size_t>(
        std::upper_bound(lines.begin(), lines.end(), lo_y) - lines.begin());
    const auto last = static_cast<std::size_t>(
        std::lower_bound(lines.begin(), lines.end(), hi_y) - lines.begin());
    return std::pair(first, std::max(first, last));
  };

  // Count phase: lines crossed per bound.
  std::vector<std::int64_t> counts(nbounds);
  pool.parallel_for(
      nbounds,
      [&](std::size_t k) {
        const auto [first, last] = crossed(k);
        counts[k] = static_cast<std::int64_t>(last - first);
      },
      /*grain=*/256);

  // Allocate phase: the blocked prefix sum turns counts into write slots
  // (the paper's count/allocate/report pattern, Lemma 4's substrate).
  const par::Allocation alloc = par::allocate_from_counts(pool, counts);
  const auto total = static_cast<std::size_t>(alloc.total);
  std::vector<std::uint32_t> line_of(total);
  std::vector<std::int32_t> edge_of(total);
  std::vector<std::int32_t> probes_of(total);

  // Report phase: every bound writes its own disjoint slot range. The
  // chain's edge tops ascend, so the crossing edge of a line is the first
  // edge whose top lies above it; successive lines resume the search
  // where the previous one stopped.
  pool.parallel_for(
      nbounds,
      [&](std::size_t k) {
        if (counts[k] == 0) return;
        const auto [first, last] = crossed(k);
        auto lo = static_cast<std::size_t>(heads[k]);
        const auto end = static_cast<std::size_t>(bound_end(k));
        auto at = static_cast<std::size_t>(alloc.offsets[k]);
        for (std::size_t j = first; j < last; ++j, ++at) {
          std::size_t a = lo, b = end;
          std::int32_t probes = 0;
          while (a < b) {
            const std::size_t mid = a + (b - a) / 2;
            ++probes;
            if (bt.edges[mid].top.y > lines[j])
              b = mid;
            else
              a = mid + 1;
          }
          line_of[at] = static_cast<std::uint32_t>(j);
          edge_of[at] = static_cast<std::int32_t>(a);
          probes_of[at] = probes;
          lo = a;
        }
      },
      /*grain=*/256);

  // Counting pass: group the records by line, keeping bound order.
  for (std::size_t i = 0; i < total; ++i) {
    ++idx.offsets[line_of[i] + 1];
    idx.probes[line_of[i]] += probes_of[i];
  }
  for (std::size_t j = 0; j < nlines; ++j) idx.offsets[j + 1] += idx.offsets[j];
  idx.seeds.resize(total);
  std::vector<std::int64_t> cursor(idx.offsets.begin(), idx.offsets.end() - 1);
  for (std::size_t i = 0; i < total; ++i)
    idx.seeds[static_cast<std::size_t>(cursor[line_of[i]]++)] = edge_of[i];
  return idx;
}

}  // namespace psclip::mt
