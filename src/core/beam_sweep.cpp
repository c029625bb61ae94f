#include "core/beam_sweep.hpp"

#include <algorithm>
#include <unordered_map>

#include "geom/intersect.hpp"
#include "parallel/inversions.hpp"
#include "seq/out_poly.hpp"
#include "seq/sweep_events.hpp"

namespace psclip::core {
namespace {

struct Entry : seq::SweepEntry {
  double xb = 0.0, xt = 0.0;
};

double x_on(const seq::BoundEdge& e, double y) {
  if (e.bot.y == y) return e.bot.x;
  if (e.top.y == y) return e.top.x;
  return geom::x_at_y(e.bot, e.top, y);
}

}  // namespace

BeamResult process_beam(const seq::BoundTable& bt,
                        std::span<const std::int32_t> edge_ids, double yb,
                        double yt, geom::BoolOp op) {
  BeamResult result;
  if (edge_ids.size() < 2) return result;

  auto edge = [&bt](const Entry& en) -> const seq::BoundEdge& {
    return bt.edges[static_cast<std::size_t>(en.e)];
  };

  // --- Lemma 1: order edges on the lower scanline. ---
  std::vector<Entry> ents(edge_ids.size());
  for (std::size_t i = 0; i < edge_ids.size(); ++i) {
    ents[i].e = edge_ids[i];
    const auto& be = bt.edges[static_cast<std::size_t>(edge_ids[i])];
    ents[i].xb = x_on(be, yb);
    ents[i].xt = x_on(be, yt);
  }
  std::sort(ents.begin(), ents.end(), [&](const Entry& a, const Entry& b) {
    if (a.xb != b.xb) return a.xb < b.xb;
    return edge(a).dxdy < edge(b).dxdy;
  });

  // --- Lemma 2/3: the parity prefix classifies contributing spans; open
  // one partial polygon along the lower scanline per interior run. ---
  auto at = [&ents](std::size_t i) -> seq::SweepEntry& { return ents[i]; };
  seq::label_by_parity(bt, ents.size(), at);
  seq::OutPolyPool pool;
  seq::open_line_runs(
      pool, bt, ents.size(), at, [&ents](std::size_t i) { return ents[i].xb; },
      yb, op);

  // --- Lemma 4: crossings = inversions between lower and upper orders,
  // reported by the extended-mergesort machinery. ---
  {
    // Rank of each entry in the upper-scanline order.
    std::vector<std::int32_t> idx(ents.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
      idx[i] = static_cast<std::int32_t>(i);
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::int32_t a, std::int32_t b) {
                       return ents[static_cast<std::size_t>(a)].xt <
                              ents[static_cast<std::size_t>(b)].xt;
                     });
    std::vector<std::int32_t> rank(ents.size());
    for (std::size_t r2 = 0; r2 < idx.size(); ++r2)
      rank[static_cast<std::size_t>(idx[r2])] = static_cast<std::int32_t>(r2);

    auto pairs = par::report_inversions(rank);
    result.intersections = static_cast<std::int64_t>(pairs.size());

    if (!pairs.empty()) {
      std::vector<seq::Crossing> pending, deferred;
      pending.reserve(pairs.size());
      for (const auto& [i, j] : pairs) {
        const auto& eu = edge(ents[static_cast<std::size_t>(i)]);
        const auto& ev = edge(ents[static_cast<std::size_t>(j)]);
        pending.push_back({ents[static_cast<std::size_t>(i)].e,
                           ents[static_cast<std::size_t>(j)].e,
                           geom::line_intersection(eu.bot, eu.top, ev.bot,
                                                   ev.top)});
      }

      // The shared crossing step (seq/sweep_events.hpp) over a per-beam
      // position map.
      std::unordered_map<std::int32_t, std::size_t> pos;
      pos.reserve(ents.size() * 2);
      for (std::size_t i = 0; i < ents.size(); ++i) pos[ents[i].e] = i;
      seq::process_crossings(
          pool, bt, ents.size(), at,
          [&pos](std::int32_t e) { return pos.at(e); },
          [&](std::size_t iu, std::size_t iv) {
            std::swap(ents[iu], ents[iv]);
            pos[ents[iu].e] = iu;
            pos[ents[iv].e] = iv;
          },
          pending, deferred, op);
    }
  }

  // --- Close partial polygons along the upper scanline, again pairing
  // consecutive contributing edges. ---
  seq::close_line_runs(
      pool, bt, ents.size(), at, [&ents](std::size_t i) { return ents[i].xt; },
      yt, op);

  // --- Harvest rings. The pool orients material rings counter-clockwise
  // and holes clockwise. Holes arise when an exterior pocket opens at a
  // crossing and closes at another crossing strictly inside the beam
  // (pockets that reach a scanline merge into the material ring there);
  // they carry no scanline-horizontal edges, so the merge phase passes
  // them through and their negative signed area keeps even-odd accounting
  // exact.
  geom::PolygonSet raw = pool.harvest();
  result.rings.reserve(raw.contours.size());
  for (auto& c : raw.contours) result.rings.push_back(std::move(c));
  return result;
}

}  // namespace psclip::core
