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
  poly.pts.push_back(p);
  ++total_vertices_;
  poly.hole = hole;
  poly.min_y = p.y;
  poly.front_owner = front_edge;
  poly.back_owner = back_edge;
  polys_.push_back(std::move(poly));
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

bool OutPolyPool::owns_front(const Poly& p, std::int32_t edge) {
  assert(p.front_owner == edge || p.back_owner == edge);
  return p.front_owner == edge;
}

void OutPolyPool::extend(std::int32_t poly, std::int32_t edge,
                         const geom::Point& p) {
  Poly& pl = at(resolve(poly));
  ++total_vertices_;
  if (owns_front(pl, edge))
    pl.pts.push_front(p);
  else
    pl.pts.push_back(p);
}

void OutPolyPool::extend_reassign(std::int32_t poly, std::int32_t edge,
                                  const geom::Point& p,
                                  std::int32_t new_edge) {
  Poly& pl = at(resolve(poly));
  ++total_vertices_;
  if (owns_front(pl, edge)) {
    pl.pts.push_front(p);
    pl.front_owner = new_edge;
  } else {
    pl.pts.push_back(p);
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
  ++total_vertices_;
  if (ref.front) {
    pl.pts.push_front(p);
    pl.front_owner = new_edge;
  } else {
    pl.pts.push_back(p);
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
    pl.pts.push_back(p);
    ++total_vertices_;
    pl.closed = true;
    pl.front_owner = pl.back_owner = -1;
    return;
  }

  Poly& a = at(ida);
  Poly& b = at(idb);
  const bool a_front = owns_front(a, edge_a);
  const bool b_front = owns_front(b, edge_b);

  // Normalize to the back(a) -- p -- front(b) case, reversing the shorter
  // list when the meeting ends have the same polarity (which legitimately
  // happens when contours have been grown from minima of either parity).
  auto reverse_poly = [](Poly& pl) {
    pl.pts.reverse();
    std::swap(pl.front_owner, pl.back_owner);
  };

  if (a_front && b_front) {
    if (a.pts.size() < b.pts.size()) reverse_poly(a); else reverse_poly(b);
  } else if (!a_front && !b_front) {
    if (a.pts.size() < b.pts.size()) reverse_poly(a); else reverse_poly(b);
  }

  // After normalization exactly one of the meeting ends is a front.
  Poly& tail = owns_front(a, edge_a) ? b : a;   // contributes its back
  Poly& head = owns_front(a, edge_a) ? a : b;   // contributes its front
  const std::int32_t tail_id = (&tail == &a) ? ida : idb;
  const std::int32_t head_id = (&tail == &a) ? idb : ida;

  tail.pts.push_back(p);
  ++total_vertices_;
  tail.pts.splice(tail.pts.end(), head.pts);
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
  (void)head_id;
}

geom::PolygonSet OutPolyPool::harvest(double min_area) const {
  geom::PolygonSet out;
  for (const auto& pl : polys_) {
    if (pl.redirect >= 0 || !pl.closed) continue;
    if (pl.pts.size() < 3) continue;
    geom::Contour c;
    c.hole = pl.hole;
    c.pts.assign(pl.pts.begin(), pl.pts.end());
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
