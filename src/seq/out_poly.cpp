#include "seq/out_poly.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace psclip::seq {

std::int32_t OutPolyPool::create(const geom::Point& p, bool hole,
                                 std::int32_t front_edge,
                                 std::int32_t back_edge) {
  Poly poly;
  push_back(poly, p);
  poly.hole = hole;
  poly.min_y = p.y;
  poly.front_owner = front_edge;
  poly.back_owner = back_edge;
  polys_.push_back(poly);
  return static_cast<std::int32_t>(polys_.size() - 1);
}

std::int32_t OutPolyPool::create_on_line(const geom::Point& p,
                                         std::int32_t front_edge,
                                         std::int32_t back_edge) {
  const std::int32_t id = create(p, /*hole=*/false, front_edge, back_edge);
  at(id).min_y = -std::numeric_limits<double>::infinity();
  return id;
}

std::int32_t OutPolyPool::resolve(std::int32_t id) const {
  while (id >= 0 && polys_[static_cast<std::size_t>(id)].redirect >= 0)
    id = polys_[static_cast<std::size_t>(id)].redirect;
  return id;
}

void OutPolyPool::push_front(Poly& pl, const geom::Point& p) {
  const auto id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back({p, -1, pl.head});
  if (pl.head >= 0)
    nodes_[static_cast<std::size_t>(pl.head)].prev = id;
  else
    pl.tail = id;
  pl.head = id;
  ++pl.count;
}

void OutPolyPool::push_back(Poly& pl, const geom::Point& p) {
  const auto id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back({p, pl.tail, -1});
  if (pl.tail >= 0)
    nodes_[static_cast<std::size_t>(pl.tail)].next = id;
  else
    pl.head = id;
  pl.tail = id;
  ++pl.count;
}

void OutPolyPool::reverse(Poly& pl) {
  for (std::int32_t i = pl.head; i >= 0;) {
    Node& n = nodes_[static_cast<std::size_t>(i)];
    std::swap(n.prev, n.next);
    i = n.prev;  // the old next
  }
  std::swap(pl.head, pl.tail);
  std::swap(pl.front_owner, pl.back_owner);
}

bool OutPolyPool::owns_front(const Poly& p, std::int32_t edge) {
  assert(p.front_owner == edge || p.back_owner == edge);
  return p.front_owner == edge;
}

void OutPolyPool::extend(std::int32_t poly, std::int32_t edge,
                         const geom::Point& p) {
  Poly& pl = at(resolve(poly));
  if (owns_front(pl, edge))
    push_front(pl, p);
  else
    push_back(pl, p);
}

void OutPolyPool::extend_reassign(std::int32_t poly, std::int32_t edge,
                                  const geom::Point& p,
                                  std::int32_t new_edge) {
  Poly& pl = at(resolve(poly));
  if (owns_front(pl, edge)) {
    push_front(pl, p);
    pl.front_owner = new_edge;
  } else {
    push_back(pl, p);
    pl.back_owner = new_edge;
  }
}

void OutPolyPool::reassign(std::int32_t poly, std::int32_t edge,
                           std::int32_t new_edge) {
  Poly& pl = at(resolve(poly));
  if (owns_front(pl, edge))
    pl.front_owner = new_edge;
  else
    pl.back_owner = new_edge;
}

OutPolyPool::EndRef OutPolyPool::locate_end(std::int32_t poly,
                                            std::int32_t edge) const {
  const std::int32_t id = resolve(poly);
  const Poly& pl = polys_[static_cast<std::size_t>(id)];
  return {id, owns_front(pl, edge)};
}

void OutPolyPool::extend_reassign_end(EndRef ref, const geom::Point& p,
                                      std::int32_t new_edge) {
  Poly& pl = at(ref.poly);
  if (ref.front) {
    push_front(pl, p);
    pl.front_owner = new_edge;
  } else {
    push_back(pl, p);
    pl.back_owner = new_edge;
  }
}

void OutPolyPool::close(std::int32_t poly_a, std::int32_t edge_a,
                        std::int32_t poly_b, std::int32_t edge_b,
                        const geom::Point& p) {
  const std::int32_t ida = resolve(poly_a);
  const std::int32_t idb = resolve(poly_b);

  if (ida == idb) {
    Poly& pl = at(ida);
    // Both ends of the same partial contour meet: the ring is complete.
    push_back(pl, p);
    pl.closed = true;
    pl.front_owner = pl.back_owner = -1;
    return;
  }

  Poly& a = at(ida);
  Poly& b = at(idb);
  const bool a_front = owns_front(a, edge_a);
  const bool b_front = owns_front(b, edge_b);

  // Normalize to the back(a) -- p -- front(b) case, reversing the shorter
  // chain when the meeting ends have the same polarity (which legitimately
  // happens when contours have been grown from minima of either parity).
  if (a_front == b_front) {
    if (a.count < b.count) reverse(a); else reverse(b);
  }

  // After normalization exactly one of the meeting ends is a front.
  Poly& tail = owns_front(a, edge_a) ? b : a;   // contributes its back
  Poly& head = owns_front(a, edge_a) ? a : b;   // contributes its front
  const std::int32_t tail_id = (&tail == &a) ? ida : idb;

  push_back(tail, p);
  // Splice head's chain after tail's: relink the two meeting nodes.
  nodes_[static_cast<std::size_t>(tail.tail)].next = head.head;
  nodes_[static_cast<std::size_t>(head.head)].prev = tail.tail;
  tail.tail = head.tail;
  tail.count += head.count;
  head.head = head.tail = -1;
  head.count = 0;
  tail.back_owner = head.back_owner;
  // The ring's hole-ness is decided at its *global* minimum: a partial
  // started at a concave notch inside the interior carries hole=true even
  // when the ring it ends up in is exterior. Keep the flag (and origin)
  // of the lower-origin partial.
  if (head.min_y < tail.min_y) {
    tail.hole = head.hole;
    tail.min_y = head.min_y;
  }
  head.redirect = tail_id;
  head.front_owner = head.back_owner = -1;
}

geom::PolygonSet OutPolyPool::harvest(double min_area) const {
  const auto harvested = [](const Poly& pl) {
    return pl.redirect < 0 && pl.closed && pl.count >= 3;
  };
  geom::PolygonSet out;
  out.contours.reserve(static_cast<std::size_t>(
      std::count_if(polys_.begin(), polys_.end(), harvested)));
  for (const auto& pl : polys_) {
    if (!harvested(pl)) continue;
    geom::Contour c;
    c.hole = pl.hole;
    c.pts.reserve(pl.count);
    for (std::int32_t i = pl.head; i >= 0;) {
      const Node& n = nodes_[static_cast<std::size_t>(i)];
      c.pts.push_back(n.p);
      i = n.next;
    }
    // Collapse consecutive duplicates (events at shared points can emit
    // the same vertex twice).
    auto last = std::unique(c.pts.begin(), c.pts.end());
    c.pts.erase(last, c.pts.end());
    while (c.pts.size() > 1 && c.pts.front() == c.pts.back())
      c.pts.pop_back();
    if (c.pts.size() < 3) continue;
    const double sa = geom::signed_area(c);
    if (std::abs(sa) <= min_area) continue;
    // Exterior contours counter-clockwise, holes clockwise.
    if ((!c.hole && sa < 0.0) || (c.hole && sa > 0.0)) geom::reverse(c);
    out.contours.push_back(std::move(c));
  }
  return out;
}

}  // namespace psclip::seq
