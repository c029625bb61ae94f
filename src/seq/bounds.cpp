#include "seq/bounds.hpp"

#include <algorithm>

#include "geom/perturb.hpp"

namespace psclip::seq {
namespace {

double slope(const geom::Point& bot, const geom::Point& top) {
  return (top.x - bot.x) / (top.y - bot.y);
}

}  // namespace

void append_bounds(BoundTable& bt, const geom::PolygonSet& p, bool is_clip) {
  for (const auto& c : p.contours) append_bounds(bt, c, is_clip);
}

void append_bounds(BoundTable& bt, const geom::Contour& c, bool is_clip) {
  const std::size_t n = c.size();
  if (n < 3) return;

  auto at = [&c, n](std::size_t i) -> const geom::Point& {
    return c[i % n];
  };
  auto ascending = [&](std::size_t from) {
    return at(from + 1).y > at(from).y;
  };

  // Walk one ascending chain starting with the edge from -> from+1;
  // returns the index of the first edge and links the chain.
  auto emit_chain_forward = [&](std::size_t from) -> std::int32_t {
    std::int32_t first = -1, prev = -1;
    std::size_t i = from;
    while (ascending(i)) {
      BoundEdge e;
      e.bot = at(i);
      e.top = at(i + 1);
      e.dxdy = slope(e.bot, e.top);
      e.is_clip = is_clip;
      const auto id = static_cast<std::int32_t>(bt.edges.size());
      bt.edges.push_back(e);
      if (prev >= 0) bt.edges[prev].next = id;
      if (first < 0) first = id;
      prev = id;
      i = (i + 1) % n;
    }
    return first;
  };
  // Same, walking the ring backwards (descending contour edges reversed
  // into ascending bound edges).
  auto emit_chain_backward = [&](std::size_t from) -> std::int32_t {
    std::int32_t first = -1, prev = -1;
    std::size_t i = from;
    auto prev_idx = [n](std::size_t k) { return (k + n - 1) % n; };
    while (at(prev_idx(i)).y > at(i).y) {
      BoundEdge e;
      e.bot = at(i);
      e.top = at(prev_idx(i));
      e.dxdy = slope(e.bot, e.top);
      e.is_clip = is_clip;
      const auto id = static_cast<std::int32_t>(bt.edges.size());
      bt.edges.push_back(e);
      if (prev >= 0) bt.edges[prev].next = id;
      if (first < 0) first = id;
      prev = id;
      i = prev_idx(i);
    }
    return first;
  };

  for (std::size_t i = 0; i < n; ++i) {
    const geom::Point& prev = at(i + n - 1);
    const geom::Point& cur = at(i);
    const geom::Point& next = at(i + 1);
    const bool is_min = prev.y > cur.y && next.y > cur.y;
    if (!is_min) continue;

    LocalMin lm;
    lm.pt = cur;
    const std::int32_t fwd = emit_chain_forward(i);
    const std::int32_t bwd = emit_chain_backward(i);
    // Order the two bound heads left/right by slope: going up from the
    // shared minimum, the edge with smaller dx/dy lies to the left.
    if (bt.edges[fwd].dxdy <= bt.edges[bwd].dxdy) {
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
  build_bounds_into(bt, subject, clip);
  return bt;
}

void sort_minima(BoundTable& bt) {
  std::sort(bt.minima.begin(), bt.minima.end(),
            [](const LocalMin& a, const LocalMin& b) {
              return a.pt.y < b.pt.y || (a.pt.y == b.pt.y && a.pt.x < b.pt.x);
            });
}

void build_bounds_into(BoundTable& bt, const geom::PolygonSet& subject,
                       const geom::PolygonSet& clip) {
  bt.edges.clear();
  bt.minima.clear();
  append_bounds(bt, subject, /*is_clip=*/false);
  append_bounds(bt, clip, /*is_clip=*/true);
  sort_minima(bt);
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
  out = geom::cleaned_contour(in);
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

void append_prepared(BoundTable& bt, const PreparedContour& pc) {
  // Grow geometrically: vector::reserve allocates exactly what is asked,
  // so an exact-size reserve per fragment would reallocate (and copy the
  // whole table) on every append — quadratic over a slab's contour list.
  const auto grow = [](auto& v, std::size_t need) {
    if (v.capacity() < need) v.reserve(std::max(need, v.capacity() * 2));
  };
  const auto base = static_cast<std::int32_t>(bt.edges.size());
  grow(bt.edges, bt.edges.size() + pc.bt.edges.size());
  for (BoundEdge e : pc.bt.edges) {
    if (e.next >= 0) e.next += base;
    bt.edges.push_back(e);
  }
  grow(bt.minima, bt.minima.size() + pc.bt.minima.size());
  for (LocalMin lm : pc.bt.minima) {
    lm.edge_left += base;
    lm.edge_right += base;
    bt.minima.push_back(lm);
  }
}

std::vector<double> scanbeam_ys(const BoundTable& bt) {
  std::vector<double> ys;
  scanbeam_ys_into(bt, ys);
  return ys;
}

void scanbeam_ys_into(const BoundTable& bt, std::vector<double>& ys) {
  ys.clear();
  ys.reserve(bt.edges.size() * 2);
  for (const auto& e : bt.edges) {
    ys.push_back(e.bot.y);
    ys.push_back(e.top.y);
  }
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
}

void scanbeam_ys_merged_into(const BoundTable& bt, std::vector<double>& ys) {
  ys.clear();
  ys.reserve(bt.edges.size() + bt.minima.size());
  // One sorted run per bound: the shared minimum's y, then the strictly
  // increasing edge tops along the chain (each edge's bot is the previous
  // edge's top, so interior bots add no distinct values).
  std::vector<std::size_t> run_end;  // run r = ys[run_end[r], run_end[r+1])
  run_end.reserve(bt.minima.size() * 2 + 1);
  run_end.push_back(0);
  for (const LocalMin& lm : bt.minima) {
    for (const std::int32_t head : {lm.edge_left, lm.edge_right}) {
      ys.push_back(bt.edges[static_cast<std::size_t>(head)].bot.y);
      for (std::int32_t e = head; e >= 0;
           e = bt.edges[static_cast<std::size_t>(e)].next)
        ys.push_back(bt.edges[static_cast<std::size_t>(e)].top.y);
      run_end.push_back(ys.size());
    }
  }
  merge_sorted_runs_unique(ys, run_end);
}

void merge_sorted_runs_unique(std::vector<double>& ys,
                              std::vector<std::size_t>& run_end) {
  // Bottom-up pairwise merges: O(total · log(runs)), mostly sequential
  // streaming passes over already-ordered data.
  std::vector<std::size_t> next_end;
  while (run_end.size() > 2) {
    next_end.clear();
    next_end.push_back(0);
    std::size_t i = 0;
    for (; i + 2 < run_end.size(); i += 2) {
      std::inplace_merge(ys.begin() + static_cast<std::ptrdiff_t>(run_end[i]),
                         ys.begin() + static_cast<std::ptrdiff_t>(run_end[i + 1]),
                         ys.begin() + static_cast<std::ptrdiff_t>(run_end[i + 2]));
      next_end.push_back(run_end[i + 2]);
    }
    if (i + 1 < run_end.size()) next_end.push_back(run_end[i + 1]);
    run_end.swap(next_end);
  }
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
}

}  // namespace psclip::seq
