#pragma once

// Greiner–Hormann clipping of two simple contours, kept for the paper's
// §IV engine choice: the paper rectangle-clips every slab in Algorithm 2's
// Steps 4–5 with GH, having found it faster than GPC for that job.
// bench_ablation_clippers reproduces that comparison. No library engine
// calls GH: the slab engine cuts prepared bounds instead of clipping
// rectangles, and GH's preconditions (simple inputs in general position)
// exclude the degenerate cases the sweep engines handle.
//
// The classic three phases: insert crossing nodes into both circular
// vertex lists, mark them alternately entry/exit starting from a
// point-in-polygon test, then trace result rings by switching lists at
// each crossing. Requires general position (no vertex-on-edge or
// overlapping-edge degeneracies; use geom::jitter for degenerate data)
// and non-self-intersecting inputs — the limitations that motivate
// Vatti's algorithm for the general case.

#include <cmath>
#include <tuple>
#include <utility>
#include <vector>

#include "geom/bool_op.hpp"
#include "geom/intersect.hpp"
#include "geom/point_in_polygon.hpp"
#include "geom/polygon.hpp"
#include "geom/validate.hpp"

namespace psclip::bench {
namespace gh_detail {

struct Node {
  geom::Point p;
  int next = -1, prev = -1;
  bool intersect = false;
  int neighbor = -1;  // matching node in the other list
  bool entry = false;
  bool visited = false;
  double alpha = 0.0;  // parametric position along the source edge
};

/// Builds the circular list for a ring; returns index of the first node.
inline int build_ring(std::vector<Node>& nodes, const geom::Contour& c) {
  const int base = static_cast<int>(nodes.size());
  const int n = static_cast<int>(c.size());
  for (int i = 0; i < n; ++i) {
    Node nd;
    nd.p = c[static_cast<std::size_t>(i)];
    nd.next = base + (i + 1) % n;
    nd.prev = base + (i + n - 1) % n;
    nodes.push_back(nd);
  }
  return base;
}

/// Insert an intersection node after `from`, keeping alpha order among
/// consecutive intersection nodes on the same original edge.
inline void insert_sorted(std::vector<Node>& nodes, int from, int idx) {
  int cur = from;
  while (nodes[nodes[cur].next].intersect &&
         nodes[nodes[cur].next].alpha < nodes[idx].alpha)
    cur = nodes[cur].next;
  const int nxt = nodes[cur].next;
  nodes[idx].prev = cur;
  nodes[idx].next = nxt;
  nodes[cur].next = idx;
  nodes[nxt].prev = idx;
}

/// segment_intersection of two edges with the operands in a fixed order
/// (the lexicographically smaller edge first), so an edge pair yields the
/// same crossing point bit for bit whichever ring is the subject. XOR
/// concatenates A \ B and B \ A, whose rings meet at exactly these points:
/// computed in argument order, the two halves placed a crossing an ulp
/// apart and their rings crossed there.
inline geom::SegmentIntersection crossing(const geom::Point& a1,
                                          const geom::Point& a2,
                                          const geom::Point& b1,
                                          const geom::Point& b2) {
  const auto key = [](const geom::Point& p, const geom::Point& q) {
    return std::tuple(p.x, p.y, q.x, q.y);
  };
  return key(b1, b2) < key(a1, a2) ? geom::segment_intersection(b1, b2, a1, a2)
                                   : geom::segment_intersection(a1, a2, b1, b2);
}

inline double param_along(const geom::Point& a, const geom::Point& b,
                          const geom::Point& p) {
  const double dx = b.x - a.x, dy = b.y - a.y;
  return std::fabs(dx) >= std::fabs(dy) ? (p.x - a.x) / dx : (p.y - a.y) / dy;
}

inline bool inside(const geom::Point& p, const geom::Contour& ring) {
  geom::PolygonSet s;
  s.contours.push_back(ring);
  return geom::point_in_polygon(p, s);
}

inline geom::PolygonSet no_intersection_result(const geom::Contour& subject,
                                               const geom::Contour& clip,
                                               geom::BoolOp op) {
  using geom::BoolOp;
  geom::PolygonSet out;
  const bool s_in_c = inside(subject[0], clip);
  const bool c_in_s = inside(clip[0], subject);
  switch (op) {
    case BoolOp::kIntersection:
      if (s_in_c) out.contours.push_back(subject);
      else if (c_in_s) out.contours.push_back(clip);
      break;
    case BoolOp::kUnion:
      if (s_in_c) out.contours.push_back(clip);
      else if (c_in_s) out.contours.push_back(subject);
      else {
        out.contours.push_back(subject);
        out.contours.push_back(clip);
      }
      break;
    case BoolOp::kDifference:
      if (s_in_c) break;  // subject swallowed
      out.contours.push_back(subject);
      if (c_in_s) {
        geom::Contour hole = clip;
        hole.hole = true;
        out.contours.push_back(hole);  // even-odd: clip ring voids interior
      }
      break;
    case BoolOp::kXor:
      out.contours.push_back(subject);
      out.contours.push_back(clip);
      break;
  }
  return out;
}

}  // namespace gh_detail

/// `subject` op `clip` for two simple contours. The output's area is
/// defined by the even-odd rule (measure it with geom::even_odd_area):
/// GH does not orient holes the way the sweep engines do.
inline geom::PolygonSet greiner_hormann(const geom::Contour& subject,
                                        const geom::Contour& clip,
                                        geom::BoolOp op) {
  using geom::BoolOp;
  using gh_detail::Node;
  if (op == BoolOp::kXor) {
    // GH expresses XOR as the disjoint union of the two differences
    // (their interiors cannot overlap, so concatenation is exact under
    // the even-odd rule).
    geom::PolygonSet out = greiner_hormann(subject, clip, BoolOp::kDifference);
    geom::PolygonSet rev = greiner_hormann(clip, subject, BoolOp::kDifference);
    for (auto& c : rev.contours) out.contours.push_back(std::move(c));
    return out;
  }
  if (subject.size() < 3)
    return gh_detail::no_intersection_result(subject, clip, op);
  if (clip.size() < 3) {
    geom::PolygonSet out;
    if (op != BoolOp::kIntersection) out.contours.push_back(subject);
    return out;
  }

  std::vector<Node> nodes;
  nodes.reserve(subject.size() + clip.size() + 16);
  const int s0 = gh_detail::build_ring(nodes, subject);
  const int c0 = gh_detail::build_ring(nodes, clip);
  const int sn = static_cast<int>(subject.size());
  const int cn = static_cast<int>(clip.size());

  // Phase 1: find proper crossings and link twin nodes into both rings.
  bool any = false;
  for (int i = 0; i < sn; ++i) {
    const geom::Point& a1 = subject[static_cast<std::size_t>(i)];
    const geom::Point& a2 = subject[static_cast<std::size_t>((i + 1) % sn)];
    for (int j = 0; j < cn; ++j) {
      const geom::Point& b1 = clip[static_cast<std::size_t>(j)];
      const geom::Point& b2 = clip[static_cast<std::size_t>((j + 1) % cn)];
      const auto x = gh_detail::crossing(a1, a2, b1, b2);
      if (x.relation != geom::SegmentRelation::kProper) continue;
      any = true;
      Node si;
      si.p = x.point;
      si.intersect = true;
      si.alpha = gh_detail::param_along(a1, a2, x.point);
      Node ci;
      ci.p = x.point;
      ci.intersect = true;
      ci.alpha = gh_detail::param_along(b1, b2, x.point);
      const int si_idx = static_cast<int>(nodes.size());
      nodes.push_back(si);
      const int ci_idx = static_cast<int>(nodes.size());
      nodes.push_back(ci);
      nodes[si_idx].neighbor = ci_idx;
      nodes[ci_idx].neighbor = si_idx;
      gh_detail::insert_sorted(nodes, s0 + i, si_idx);
      gh_detail::insert_sorted(nodes, c0 + j, ci_idx);
    }
  }
  if (!any) return gh_detail::no_intersection_result(subject, clip, op);

  // Phase 2: alternate entry/exit flags along each ring. The initial flag
  // per ring comes from a point-in-polygon test; the boolean operator is
  // realized by flipping the conventional intersection flags (Greiner &
  // Hormann 1998): intersection flips nothing, union flips both rings,
  // A\B flips the subject ring.
  const bool flip_s = (op == BoolOp::kUnion || op == BoolOp::kDifference);
  const bool flip_c = (op == BoolOp::kUnion);
  const auto mark = [&nodes](int first, bool status) {
    for (int cur = first;;) {
      if (nodes[cur].intersect) {
        nodes[cur].entry = status;
        status = !status;
      }
      cur = nodes[cur].next;
      if (cur == first) break;
    }
  };
  mark(s0, !gh_detail::inside(subject[0], clip) != flip_s);
  mark(c0, !gh_detail::inside(clip[0], subject) != flip_c);

  // Phase 3: trace result rings.
  geom::PolygonSet out;
  for (std::size_t seed = 0; seed < nodes.size(); ++seed) {
    if (!nodes[seed].intersect || nodes[seed].visited) continue;
    geom::Contour ring;
    int cur = static_cast<int>(seed);
    do {
      nodes[cur].visited = true;
      nodes[nodes[cur].neighbor].visited = true;
      const bool forward = nodes[cur].entry;
      do {
        cur = forward ? nodes[cur].next : nodes[cur].prev;
        ring.pts.push_back(nodes[cur].p);
      } while (!nodes[cur].intersect);
      cur = nodes[cur].neighbor;
    } while (!nodes[cur].visited);
    if (ring.pts.size() >= 3) out.contours.push_back(std::move(ring));
  }
  return out;
}

/// Crossings linked into the wrong rings: the geom::validate issues of
/// GH's output that are a ring crossing itself or another ring. Even-odd
/// area cannot see them — it depends only on the boundary mod 2, which is
/// the same for any pairing of the crossings along one edge — so every
/// check of GH output pairs its area with this count.
inline std::size_t ring_crossings(const geom::PolygonSet& out) {
  using Kind = geom::ValidationIssue::Kind;
  std::size_t n = 0;
  for (const geom::ValidationIssue& issue : geom::validate(out))
    if (issue.kind == Kind::kSelfIntersection ||
        issue.kind == Kind::kCrossContourCrossing)
      ++n;
  return n;
}

}  // namespace psclip::bench
