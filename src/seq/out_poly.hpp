#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/polygon.hpp"

namespace psclip::seq {

/// Incremental store for output polygons under construction.
///
/// Vatti's algorithm grows each output contour from both ends as the sweep
/// ascends: a contributing *left* edge extends one end, a *right* edge the
/// other, and local maxima of the result join two partial contours (or
/// close one). This pool owns the vertex lists, supports O(1) end
/// extension, O(1)+redirect merging (paper Fig. 6 "merging partial output
/// polygons" at the sequential level), and tracks, per list end, which
/// sweep edge currently owns it so that the event machinery never needs
/// left/right bookkeeping of its own.
///
/// The vertices of every partial contour live in one pool-wide arena: a
/// flat vector of nodes {point, prev, next} linked by index, so growing an
/// end is an append, joining two contours relinks two nodes, and reset()
/// keeps the arena's capacity — a reused pool allocates nothing once its
/// high-water mark is reached.
///
/// Edges are identified by caller-chosen int32 ids (the clippers use the
/// BoundTable edge index).
class OutPolyPool {
 public:
  /// Start a new partial contour at point p (a local minimum of the
  /// result). `front_edge` / `back_edge` are the edges that will extend
  /// the respective ends. Returns the poly id.
  std::int32_t create(const geom::Point& p, bool hole, std::int32_t front_edge,
                      std::int32_t back_edge);

  /// Start a new partial contour at point p on a window's bottom scanline,
  /// where the result's interior enters the window from below. Such a
  /// contour is always exterior (the strip below the line is outside the
  /// window, so no hole can border it), and it ranks below every partial
  /// started inside the window: a hole opened by a crossing that rounds to
  /// just under the line cannot flip the ring it joins.
  std::int32_t create_on_line(const geom::Point& p, std::int32_t front_edge,
                              std::int32_t back_edge);

  /// Append p to the end of `poly` owned by `edge`.
  void extend(std::int32_t poly, std::int32_t edge, const geom::Point& p);

  /// Append p to the end of `poly` owned by `edge`, then hand that end to
  /// `new_edge` (intermediate vertices and intersection continuations).
  void extend_reassign(std::int32_t poly, std::int32_t edge,
                       const geom::Point& p, std::int32_t new_edge);

  /// Hand the end of `poly` owned by `edge` to `new_edge` without adding a
  /// vertex.
  void reassign(std::int32_t poly, std::int32_t edge, std::int32_t new_edge);

  /// A resolved physical list end. Two simultaneous events on the same
  /// partial contour (its two ends crossing each other, which happens with
  /// self-intersecting inputs) must resolve both ends *before* mutating
  /// either, or the first owner reassignment aliases the second lookup.
  struct EndRef {
    std::int32_t poly = -1;
    bool front = false;
  };
  [[nodiscard]] EndRef locate_end(std::int32_t poly, std::int32_t edge) const;

  /// Append p to the resolved end and hand it to `new_edge`.
  void extend_reassign_end(EndRef ref, const geom::Point& p,
                           std::int32_t new_edge);

  /// Local maximum of the result at p: the ends owned by `edge_a` (in
  /// `poly_a`) and `edge_b` (in `poly_b`) meet. If both ends belong to the
  /// same contour it is closed; otherwise the two partial contours are
  /// concatenated through p and the absorbed id redirected.
  void close(std::int32_t poly_a, std::int32_t edge_a, std::int32_t poly_b,
             std::int32_t edge_b, const geom::Point& p);

  /// Follow merge redirections to the surviving id.
  [[nodiscard]] std::int32_t resolve(std::int32_t id) const;

  /// Number of poly records created (including absorbed ones).
  [[nodiscard]] std::size_t size() const { return polys_.size(); }

  /// Total vertices appended since the last reset() (splices conserve the
  /// count; reversals don't touch it): the arena's node count.
  [[nodiscard]] std::size_t total_vertices() const { return nodes_.size(); }

  /// Resident bytes: the capacities of the record array and of the
  /// vertex arena, including what earlier runs on a reused pool left.
  [[nodiscard]] std::size_t resident_bytes() const {
    return polys_.capacity() * sizeof(Poly) + nodes_.capacity() * sizeof(Node);
  }

  /// Bytes this run's records and vertices occupy. The sweep charges this
  /// against the request's memory budget as the output grows: unlike the
  /// capacities, it follows from the run alone, not from what the pool
  /// held before.
  [[nodiscard]] std::size_t used_bytes() const {
    return polys_.size() * sizeof(Poly) + nodes_.size() * sizeof(Node);
  }

  /// Drop all poly records and vertices, retaining the capacity of both
  /// arrays — lets a pooled sweep scratch reuse the same OutPolyPool across
  /// runs.
  void reset() {
    polys_.clear();
    nodes_.clear();
  }

  /// Pre-size the record array (the sweep reserves one slot per local
  /// minimum up front, the upper bound on contributing minima).
  void reserve(std::size_t n) { polys_.reserve(n); }

  /// Extract final contours: closed contours with >= 3 vertices,
  /// orientation normalized (exterior counter-clockwise, holes clockwise).
  /// Contours with |signed area| <= min_area are dropped.
  [[nodiscard]] geom::PolygonSet harvest(double min_area = 0.0) const;

 private:
  /// One vertex of a partial contour, linked to its neighbours by arena
  /// index (-1 past either end).
  struct Node {
    geom::Point p;
    std::int32_t prev = -1;
    std::int32_t next = -1;
  };
  /// A partial contour: the chain head (front end) .. tail (back end) in
  /// the arena, plus its ownership and ring bookkeeping.
  struct Poly {
    std::int32_t head = -1;
    std::int32_t tail = -1;
    std::size_t count = 0;  ///< vertices in the chain
    bool hole = false;
    double min_y = 0.0;  ///< y of the minimum this partial started at
    bool closed = false;
    std::int32_t redirect = -1;
    std::int32_t front_owner = -1;
    std::int32_t back_owner = -1;
  };
  std::vector<Poly> polys_;
  std::vector<Node> nodes_;

  void push_front(Poly& pl, const geom::Point& p);
  void push_back(Poly& pl, const geom::Point& p);
  /// Reverse pl's chain in place (swap every node's links, then the ends)
  /// and swap its end owners.
  void reverse(Poly& pl);
  Poly& at(std::int32_t id) { return polys_[static_cast<std::size_t>(id)]; }
  /// True if `edge` owns the front end of `p` (asserts it owns some end).
  static bool owns_front(const Poly& p, std::int32_t edge);
};

}  // namespace psclip::seq
