#include "core/merge.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "geom/predicates.hpp"

namespace psclip::core {

WeldArena::WeldArena(std::span<const double> lines)
    : lines_(lines.begin(), lines.end()), horiz_(lines.size()) {}

void WeldArena::add_ring(const geom::Contour& ring) {
  const std::size_t n = ring.size();
  if (n < 3) return;
  const auto base = static_cast<std::int32_t>(pt_.size());
  pt_.insert(pt_.end(), ring.pts.begin(), ring.pts.end());
  for (std::int32_t i = 1; i < static_cast<std::int32_t>(n); ++i)
    next_.push_back(base + i);
  next_.push_back(base);
  cancelled_.resize(pt_.size(), 0);
  twin_.resize(pt_.size(), -1);
  // A ring's horizontal edges mostly share a few lines: search for the
  // line again only when it changes.
  std::size_t j = lines_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Point& a = ring[i];
    const geom::Point& b = ring[i + 1 < n ? i + 1 : 0];
    if (a.y != b.y || a.x == b.x) continue;
    if (j >= lines_.size() || lines_[j] != a.y)
      j = static_cast<std::size_t>(
          std::lower_bound(lines_.begin(), lines_.end(), a.y) -
          lines_.begin());
    if (j < lines_.size() && lines_[j] == a.y)
      horiz_[j].push_back(base + static_cast<std::int32_t>(i));
  }
}

WeldArena::LinePlan WeldArena::plan_line(std::size_t j) const {
  LinePlan plan;
  plan.y = lines_[j];
  plan.slots.reserve(horiz_[j].size());
  for (const std::int32_t a : horiz_[j]) {
    if (cancelled_[static_cast<std::size_t>(a)]) continue;
    plan.slots.push_back(a);
  }
  if (plan.slots.size() < 2) {
    plan.slots.clear();
    return plan;
  }
  // Subdivide every horizontal edge at all endpoints present on the line,
  // so coincident opposite pieces match exactly (the virtual-vertex
  // coordinates come from identical formulas on both sides of a line
  // and compare equal as doubles).
  plan.xs.reserve(plan.slots.size() * 2);
  for (const std::int32_t a : plan.slots) {
    plan.xs.push_back(pt_[static_cast<std::size_t>(a)].x);
    plan.xs.push_back(pt_[static_cast<std::size_t>(next_[a])].x);
  }
  std::sort(plan.xs.begin(), plan.xs.end());
  plan.xs.erase(std::unique(plan.xs.begin(), plan.xs.end()), plan.xs.end());
  // Count the chain slots the apply phase will create (the "count" half of
  // the paper's count/allocate/report pattern).
  for (const std::int32_t a : plan.slots) {
    const double x1 = pt_[static_cast<std::size_t>(a)].x;
    const double x2 = pt_[static_cast<std::size_t>(next_[a])].x;
    const double lo = std::min(x1, x2), hi = std::max(x1, x2);
    const std::size_t lo_idx = static_cast<std::size_t>(
        std::lower_bound(plan.xs.begin(), plan.xs.end(), lo) -
        plan.xs.begin());
    const std::size_t hi_idx = static_cast<std::size_t>(
        std::lower_bound(plan.xs.begin(), plan.xs.end(), hi) -
        plan.xs.begin());
    plan.new_slots += hi_idx - lo_idx - 1;
  }
  return plan;
}

void WeldArena::apply_line(const LinePlan& plan) {
  if (plan.slots.size() < 2) return;
  const double y = plan.y;
  const std::vector<double>& xs = plan.xs;

  // For each elementary sub-interval [xs[k], xs[k+1]] remember the slot of
  // the rightward and of the leftward sub-edge covering it (-1: none).
  std::vector<std::int32_t> right_half(xs.size(), -1), left_half(xs.size(), -1);
  std::vector<std::pair<std::int32_t, std::int32_t>> welds;  // (A, C)

  auto register_subedge = [&](std::int32_t from, std::size_t key,
                              bool rightward) {
    std::int32_t& mine = (rightward ? right_half : left_half)[key];
    std::int32_t& other = (rightward ? left_half : right_half)[key];
    if (other < 0) {
      mine = from;
      return;
    }
    const std::int32_t A = rightward ? from : other;  // rightward
    const std::int32_t C = rightward ? other : from;  // leftward
    welds.emplace_back(A, C);
    other = -1;
  };

  // Chain slots are written into this line's preallocated range.
  std::size_t cursor = plan.base;
  auto new_slot = [&](double x) -> std::int32_t {
    const auto ns = static_cast<std::int32_t>(cursor++);
    pt_[static_cast<std::size_t>(ns)] = {x, y};
    cancelled_[static_cast<std::size_t>(ns)] = 0;
    twin_[static_cast<std::size_t>(ns)] = -1;
    return ns;
  };

  for (const std::int32_t a : plan.slots) {
    const double x1 = pt_[static_cast<std::size_t>(a)].x;
    const double x2 = pt_[static_cast<std::size_t>(next_[a])].x;
    const bool rightward = x1 < x2;
    const double lo = rightward ? x1 : x2;
    const double hi = rightward ? x2 : x1;
    const std::size_t lo_idx = static_cast<std::size_t>(
        std::lower_bound(xs.begin(), xs.end(), lo) - xs.begin());
    const std::size_t hi_idx = static_cast<std::size_t>(
        std::lower_bound(xs.begin(), xs.end(), hi) - xs.begin());

    if (hi_idx == lo_idx + 1) {
      register_subedge(a, lo_idx, rightward);
      continue;
    }
    // Split into hi_idx - lo_idx sub-edges by inserting chain slots.
    std::int32_t cur = a;
    const std::int32_t tail = next_[a];
    if (rightward) {
      for (std::size_t k = lo_idx + 1; k < hi_idx; ++k) {
        const std::int32_t ns = new_slot(xs[k]);
        next_[ns] = tail;
        next_[cur] = ns;
        register_subedge(cur, k - 1, true);
        cur = ns;
      }
      register_subedge(cur, hi_idx - 1, true);
    } else {
      for (std::size_t k = hi_idx - 1; k > lo_idx; --k) {
        const std::int32_t ns = new_slot(xs[k]);
        next_[ns] = tail;
        next_[cur] = ns;
        register_subedge(cur, k, false);
        cur = ns;
      }
      register_subedge(cur, lo_idx, false);
    }
  }

  // Cancel each opposite pair A->B / C->D (pt[A]==pt[D], pt[B]==pt[C]).
  // Instead of rewriting next_ (which is order-dependent when adjacent
  // sub-edges also weld), mark the edge cancelled and record the twin
  // continuation vertex: a traversal reaching A resumes from D, one
  // reaching C resumes from B — resolved transitively at extraction.
  for (const auto& [A, C] : welds) {
    cancelled_[static_cast<std::size_t>(A)] = 1;
    twin_[static_cast<std::size_t>(A)] = next_[C];  // D
    cancelled_[static_cast<std::size_t>(C)] = 1;
    twin_[static_cast<std::size_t>(C)] = next_[A];  // B
  }
}

void WeldArena::weld_parallel(par::ThreadPool& pool) {
  // Count / allocate / report (the same PRAM pattern as Step 2): plan all
  // lines read-only in parallel, allocate every chain slot with one prefix
  // sum and a single resize, then apply the welds in parallel — welds of
  // distinct lines touch disjoint slots.
  std::vector<LinePlan> plans(lines_.size());
  pool.parallel_for(
      plans.size(), [&](std::size_t j) { plans[j] = plan_line(j); },
      /*grain=*/4);
  std::size_t base = pt_.size();
  for (auto& plan : plans) {
    plan.base = base;
    base += plan.new_slots;
  }
  pt_.resize(base);
  next_.resize(base, -1);
  cancelled_.resize(base, 0);
  twin_.resize(base, -1);
  pool.parallel_for(
      plans.size(), [&](std::size_t j) { apply_line(plans[j]); },
      /*grain=*/4);
}

std::vector<std::tuple<double, double, double>> WeldArena::debug_unwelded()
    const {
  std::vector<std::tuple<double, double, double>> out;
  for (std::size_t j = 0; j < lines_.size(); ++j) {
    const double y = lines_[j];
    for (const std::int32_t a : horiz_[j]) {
      if (cancelled_[static_cast<std::size_t>(a)]) continue;
      const geom::Point& pa = pt_[static_cast<std::size_t>(a)];
      const geom::Point& pb = pt_[static_cast<std::size_t>(next_[a])];
      if (pa.y == y && pb.y == y && pa.x != pb.x)
        out.emplace_back(y, pa.x, pb.x);
    }
  }
  return out;
}

geom::PolygonSet WeldArena::extract() const {
  geom::PolygonSet out;
  std::vector<std::uint8_t> visited(pt_.size(), 0);

  // Next live vertex after `x`, resolving cancelled edges through their
  // twin continuations. Every slot the resolution passes through —
  // including the final live slot whose outgoing edge we consume — is
  // marked visited: its continuation now belongs to the current ring, and
  // leaving it unvisited would let the outer loop re-trace the same arc
  // as a spurious duplicate ring.
  auto successor = [this, &visited](std::int32_t x) -> std::int32_t {
    std::size_t guard = 0;
    while (cancelled_[static_cast<std::size_t>(x)] &&
           guard++ <= pt_.size()) {
      x = twin_[static_cast<std::size_t>(x)];
      visited[static_cast<std::size_t>(x)] = 1;
    }
    return next_[x];
  };

  for (std::size_t start = 0; start < pt_.size(); ++start) {
    if (visited[start] || cancelled_[start]) continue;
    geom::Contour ring;
    std::int32_t cur = static_cast<std::int32_t>(start);
    std::size_t guard = 0;
    while (!visited[static_cast<std::size_t>(cur)] &&
           guard++ <= pt_.size()) {
      visited[static_cast<std::size_t>(cur)] = 1;
      // Cancelled slots still contribute their coordinate: the boundary
      // turns there (all slots of a twin chain share one coordinate, and
      // unique() collapses the repeats).
      ring.pts.push_back(pt_[static_cast<std::size_t>(cur)]);
      cur = successor(cur);
    }
    auto last = std::unique(ring.pts.begin(), ring.pts.end());
    ring.pts.erase(last, ring.pts.end());
    while (ring.pts.size() > 1 && ring.pts.front() == ring.pts.back())
      ring.pts.pop_back();
    if (ring.pts.size() < 3) continue;

    ring.hole = geom::signed_area(ring) < 0.0;
    out.contours.push_back(std::move(ring));
  }
  return out;
}

LineVertices vertices_on_lines(const seq::BoundTable& bt,
                               std::span<const double> ys) {
  // Every vertex of the table is a minimum or the top of a bound edge.
  const auto line = [ys](double y) {
    return static_cast<std::size_t>(
        std::lower_bound(ys.begin(), ys.end(), y) - ys.begin());
  };
  LineVertices on;
  on.first.assign(ys.size() + 1, 0);
  for (const seq::LocalMin& lm : bt.minima) ++on.first[line(lm.pt.y) + 1];
  for (const seq::BoundEdge& e : bt.edges) ++on.first[line(e.top.y) + 1];
  for (std::size_t j = 0; j < ys.size(); ++j) on.first[j + 1] += on.first[j];
  on.xs.resize(on.first.back());
  std::vector<std::size_t> fill(on.first.begin(), on.first.end() - 1);
  for (const seq::LocalMin& lm : bt.minima)
    on.xs[fill[line(lm.pt.y)]++] = lm.pt.x;
  for (const seq::BoundEdge& e : bt.edges)
    on.xs[fill[line(e.top.y)]++] = e.top.x;
  for (std::size_t j = 0; j < ys.size(); ++j)
    std::sort(on.xs.begin() + static_cast<std::ptrdiff_t>(on.first[j]),
              on.xs.begin() + static_cast<std::ptrdiff_t>(on.first[j + 1]));
  return on;
}

void drop_cut_vertices(geom::Contour& ring, std::span<const double> lines,
                       const LineVertices* on_lines) {
  std::vector<geom::Point>& v = ring.pts;
  const std::size_t n = v.size();
  // Compacts in place: slot i is read before it can be overwritten, and
  // the original neighbours it overwrites are kept aside.
  const geom::Point first = v[0];
  geom::Point prev = v[n - 1];
  // The index of the line at y, lines.size() if none. Cut vertices come in
  // runs along a bound, one line apart, so the lines next to the last one
  // found are tried before searching.
  std::size_t hint = 0;
  const auto line_at = [&](double y) {
    for (const std::size_t j : {hint, hint + 1, hint - 1})
      if (j < lines.size() && lines[j] == y) return hint = j;
    const auto it = std::lower_bound(lines.begin(), lines.end(), y);
    if (it == lines.end() || *it != y) return lines.size();
    return hint = static_cast<std::size_t>(it - lines.begin());
  };
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Point cur = v[i];
    const geom::Point& next = i + 1 < n ? v[i + 1] : first;
    const double y = cur.y;
    bool cut = (prev.y < y && y < next.y) || (next.y < y && y < prev.y);
    if (cut) {
      const geom::Point d = next - prev;
      const double chord = std::fabs(d.x) + std::fabs(d.y);
      const double scale = chord + std::fabs(cur.x) + std::fabs(y);
      const std::size_t j = line_at(y);
      cut = j < lines.size() &&
            std::fabs(geom::cross(cur - prev, d)) <= 1e-12 * chord * scale;
      if (cut && on_lines) {
        const auto xs = on_lines->xs.begin();
        cut = !std::binary_search(
            xs + static_cast<std::ptrdiff_t>(on_lines->first[j]),
            xs + static_cast<std::ptrdiff_t>(on_lines->first[j + 1]), cur.x);
      }
    }
    if (!cut) v[kept++] = cur;
    prev = cur;
  }
  v.resize(kept);
}

geom::PolygonSet weld_seams(par::ThreadPool& pool,
                            std::span<const geom::Contour> rings,
                            std::span<const double> lines,
                            const LineVertices* on_lines) {
  WeldArena arena(lines);
  for (const geom::Contour& ring : rings) arena.add_ring(ring);
  arena.weld_parallel(pool);
  geom::PolygonSet out = arena.extract();
  pool.parallel_for(
      out.contours.size(),
      [&](std::size_t i) { drop_cut_vertices(out.contours[i], lines, on_lines); },
      /*grain=*/1);
  return out;
}

}  // namespace psclip::core
