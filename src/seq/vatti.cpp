// Vatti scanline clipper.
//
// Structure follows the paper's description of the sequential algorithm
// (§III-B): local-minima table -> scanbeam schedule -> active edge table
// (AET) maintained bottom-to-top. Within a scanbeam, intersections are
// discovered by re-sorting the AET by x at the top scanline; every adjacent
// transposition performed by the insertion sort is exactly one edge
// crossing (the paper's inversion insight, Lemma 4), processed in a valid
// order precisely because only currently-adjacent edges ever swap.
//
// Vertex emission is derived from one uniform rule instead of Vatti's
// 16-way vertex classification: at any event point, evaluate in/out of the
// boolean result for the sectors around the point (from the even-odd parity
// flags carried by each AET entry, cf. Lemma 1-3); every maximal interior
// run of sectors is bounded by two contributing half-edges, which connect
// through the point — below+below closes a contour, above+above starts one,
// below+above continues one.
//
// Data layout (DESIGN.md §9): the AET is SoA, indexed by slot — the cold
// sweep-status fields (SweepEntry), the beam-local x positions (xb = x at
// the beam bottom, xt = x at the beam top), the slot edge's geometry in
// geom::x_at_y's operand form (bot.x, bot.y, top.x − bot.x, top.y − bot.y)
// and its top y. The per-beam passes therefore stream contiguous arrays
// and never gather bound edges by id: the top-x fill evaluates x_at_y's
// exact operations on the slot geometry (bit-identical, vectorized), a
// blocked scan of the top ys records the few edges ending at the beam top
// (whose xt is then their top vertex's x), and an adjacent-inversion scan
// detects the crossing-free common case, which skips the intersection
// machinery entirely. The slot arrays are written when an edge enters a
// slot (seed line, minima merge, bound continuation) and move inside the
// existing edit passes (minima merge, maxima erase, crossing swap); the
// beam rollover is one vector swap. A flat edge-id -> AET-index array is
// maintained incrementally across beams (O(1) per crossing swap, one
// suffix refresh per structural edit batch).
//
// The beam top is event-driven: it visits only the ends the fill recorded,
// not the whole AET. It keeps the results of a walk over the AET byte for
// byte: ends are handled in ascending AET position, a local maximum pairs
// with the next unconsumed end at the same point, the strays between
// partners get the same parity repair, and removals are compacted in one
// pass afterwards.
//
// One sweep path serves the whole plane and Algorithm 2's slabs: a
// SweepWindow restricts it to a strip of a shared, read-only bound table —
// seeded at the bottom line with the edges crossing it (parity by prefix
// count, runs opened along the line), closed along the top line, with only
// the strip's minima and schedule slice in between. vatti_clip is the
// unbounded window with no seeds.

#include "seq/vatti.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "geom/intersect.hpp"
#include "geom/perturb.hpp"
#include "obs/trace.hpp"
#include "parallel/cancel.hpp"
#include "parallel/fault.hpp"
#include "seq/bounds.hpp"
#include "seq/out_poly.hpp"
#include "seq/sweep_events.hpp"

namespace psclip::seq {
namespace {

using geom::BoolOp;
using geom::Point;
using geom::PolygonSet;

/// One not-yet-merged AET insertion staged by the batched minima pass:
/// the pair's entries go immediately before old-AET index `base`.
struct StagedEntry {
  std::size_t base;
  SweepEntry ent;
  double x;  ///< beam-bottom x (the minimum's x)
};

/// An AET slot's edge geometry: what the top-x fill reads, in the operand
/// form of geom::x_at_y (bot, top − bot).
struct SlotEdge {
  double bx, by;  ///< bot.x, bot.y
  double dx, dy;  ///< top.x − bot.x, top.y − bot.y
};

/// xt[i] = x at y of slot i's edge: geom::x_at_y's operations in its order,
/// so the values are bit-identical to evaluating it on the bound edge (no
/// FMA: the build disables contraction). No gathers and no branches, so
/// -O3 vectorizes it at baseline x86-64.
void fill_top_x(double* __restrict xt, const SlotEdge* __restrict g,
                std::size_t n, double y) {
  for (std::size_t i = 0; i < n; ++i)
    xt[i] = g[i].bx + g[i].dx * ((y - g[i].by) / g[i].dy);
}

/// Append to `out` the slots i with ty[i] == y, in ascending order. Ends
/// are rare (a few slots per beam), so each block of slots is first tested
/// with a vectorizable any-of and only blocks with a hit are scanned one by
/// one.
void find_ends(const double* __restrict ty, std::size_t n, double y,
               std::vector<std::int32_t>& out) {
  constexpr std::size_t kBlock = 32;
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    double hit = 0.0;
    for (std::size_t k = 0; k < kBlock; ++k) hit = ty[i + k] == y ? 1.0 : hit;
    if (hit == 0.0) continue;
    for (std::size_t k = i; k < i + kBlock; ++k)
      if (ty[k] == y) out.push_back(static_cast<std::int32_t>(k));
  }
  for (; i < n; ++i)
    if (ty[i] == y) out.push_back(static_cast<std::int32_t>(i));
}

/// True when some adjacent pair of xs is out of order (xs[i] < xs[i-1]).
/// `seen` is a select rather than a bool OR so that -O3 vectorizes it at
/// baseline x86-64.
bool has_inversion(const double* __restrict xs, std::size_t n) {
  double seen = 0.0;
  for (std::size_t i = 1; i < n; ++i) seen = xs[i] < xs[i - 1] ? 1.0 : seen;
  return seen != 0.0;
}

/// PSCLIP_VALIDATE presence, read once per process (not per sweep).
bool env_validate_enabled() {
  static const bool on = std::getenv("PSCLIP_VALIDATE") != nullptr;
  return on;
}

}  // namespace

/// All buffers the sweep works in. Owned by VattiScratch so that a
/// per-worker arena clears them (capacity retained) instead of paying a
/// fresh round of allocations per call — and, for the per-beam event
/// buffers, per scanbeam.
struct VattiScratch::Impl {
  BoundTable bt;
  std::vector<double> ys;          ///< scanbeam schedule
  // SoA active edge table: cold sweep-status entries, hot x arrays and the
  // slot's edge geometry, all indexed by AET slot.
  std::vector<SweepEntry> aet;
  std::vector<double> xb;          ///< x on the current beam's bottom scanline
  std::vector<double> xt;          ///< x on the current beam's top scanline
  std::vector<SlotEdge> geo;       ///< the slot's edge geometry
  std::vector<double> ty;          ///< the slot edge's top.y
  std::vector<std::int32_t> pos;   ///< edge id -> AET index
  /// The current beam's ends: ids of the edges ending at its top
  /// scanline, recorded by the fill and turned into AET slots by the top
  /// step.
  std::vector<std::int32_t> ends;
  OutPolyPool pool;
  // process_intersections working set (cleared every beam):
  std::vector<Crossing> events;
  std::vector<std::pair<double, std::int32_t>> keys;  ///< (xt, edge id)
  std::vector<Crossing> deferred;
  std::vector<StagedEntry> staged;  ///< insert_minima batch staging

  void begin_run() {
    aet.clear();
    xb.clear();
    xt.clear();
    geo.clear();
    ty.clear();
    pool.reset();
  }
};

VattiScratch::VattiScratch() : impl(std::make_unique<Impl>()) {}
VattiScratch::~VattiScratch() = default;
VattiScratch::VattiScratch(VattiScratch&&) noexcept = default;
VattiScratch& VattiScratch::operator=(VattiScratch&&) noexcept = default;

std::size_t VattiScratch::resident_bytes() const {
  const Impl& s = *impl;
  auto vec = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return vec(s.bt.edges) + vec(s.bt.minima) + vec(s.ys) + vec(s.aet) +
         vec(s.xb) + vec(s.xt) + vec(s.geo) + vec(s.ty) + vec(s.pos) +
         vec(s.ends) + vec(s.events) + vec(s.keys) + vec(s.deferred) +
         vec(s.staged) + s.pool.resident_bytes();
}

namespace {

class Sweep {
 public:
  Sweep(const BoundTable& bt, VattiScratch::Impl& sc, BoolOp op,
        int validate_mode, const SweepWindow& w)
      : bt_(bt),
        op_(op),
        sc_(sc),
        aet_(sc.aet),
        xb_(sc.xb),
        xt_(sc.xt),
        geo_(sc.geo),
        ty_(sc.ty),
        pos_(sc.pos),
        pool_(sc.pool),
        win_(w),
        min_end_(std::min(w.min_end, bt.minima.size())),
        validate_(validate_mode < 0 ? env_validate_enabled()
                                    : validate_mode != 0) {}

  /// Sweep the beams between consecutive scanlines of sc.ys (the caller
  /// filled it: the whole schedule, or a window's lines and slice).
  PolygonSet run(VattiStats* stats) {
    // The flat position index is sized once per run; entries are written
    // before they are read (an edge's slot is set when it enters the AET),
    // so no per-run clear is needed.
    if (pos_.size() < bt_.num_edges()) pos_.resize(bt_.num_edges());
    pool_.reserve(min_end_ - std::min(win_.min_begin, min_end_) +
                  win_.seeds.size() / 2);
    const std::vector<double>& ys = sc_.ys;
    std::size_t next_min = win_.min_begin;
    if (!win_.seeds.empty()) seed_line(win_.y_lo);
    // Request governance (DESIGN.md §11): the scanbeam loop is the one
    // place whose trip count is output-sensitive, so it hosts the
    // cooperative cancellation checkpoint (amortized clock reads keep it
    // under the bench_governance_overhead 1% gate) and the preemptive
    // charge for output growth — the only structure a hostile input can
    // blow up beyond any input-proportional bound. The charge is a
    // watermark over the pool's O(1) vertex counter and releases with this
    // scope if the sweep unwinds.
    par::gov::ScopedCharge out_charge;
    for (std::size_t i = 0; i + 1 < ys.size(); ++i) {
      par::gov::checkpoint();
      out_charge.raise_to(pool_.total_vertices() * OutPolyPool::kVertexBytes);
      const double yb = ys[i];
      const double yt = ys[i + 1];
      insert_minima(yb, next_min);
      if (validate_) validate_flags(yb, "after-minima");
      process_intersections(yb, yt);
      process_top();
      // Beam rollover: every entry's bottom x for the next beam is its top
      // x here — a buffer swap.
      xb_.swap(xt_);
      if (validate_) validate_flags(yt, "after-beam");
      if (stats) {
        ++stats->scanbeams;
        stats->max_aet = std::max<std::int64_t>(
            stats->max_aet, static_cast<std::int64_t>(aet_.size()));
      }
    }
    // A window's top line: the edges still active cross it, and every
    // interior run between them closes along the line.
    if (win_.y_hi < std::numeric_limits<double>::infinity())
      close_line_runs(
          pool_, bt_, aet_.size(),
          [this](std::size_t i) -> SweepEntry& { return aet_[i]; },
          [this](std::size_t i) { return xb_[i]; }, win_.y_hi, op_);
    if (stats) {
      stats->edges = edges_;
      stats->boundary_edges = static_cast<std::int64_t>(win_.seeds.size());
      stats->intersections = intersections_;
      stats->sorted_beams = sorted_beams_;
      stats->pos_rebuilds = pos_rebuilds_;
      stats->aet_visits = aet_visits_;
      stats->top_visits = top_visits_;
      stats->validate_failures = validate_failures_;
    }
    PolygonSet out = pool_.harvest();
    if (stats)
      stats->output_vertices =
          static_cast<std::int64_t>(out.num_vertices());
    return out;
  }

 private:
  const BoundTable& bt_;
  BoolOp op_;
  VattiScratch::Impl& sc_;
  std::vector<SweepEntry>& aet_;
  std::vector<double>& xb_;
  std::vector<double>& xt_;
  std::vector<SlotEdge>& geo_;
  std::vector<double>& ty_;
  std::vector<std::int32_t>& pos_;
  OutPolyPool& pool_;
  const SweepWindow& win_;
  std::size_t min_end_;        ///< end of the window's minima range
  std::int64_t edges_ = 0;     ///< edges that entered the AET
  std::int64_t intersections_ = 0;
  std::int64_t sorted_beams_ = 0;
  std::int64_t pos_rebuilds_ = 0;
  std::int64_t aet_visits_ = 0;
  std::int64_t top_visits_ = 0;
  std::int64_t validate_failures_ = 0;
  bool validate_ = false;

  /// Apply `f` to every per-slot array the edit passes move: the entries,
  /// the live x array `x` (xb before the fill, xt after it), the edge
  /// geometry and the top ys.
  template <typename F>
  void for_each_slot_array(std::vector<double>& x, F&& f) {
    f(aet_);
    f(x);
    f(geo_);
    f(ty_);
  }

  /// Write edge e's geometry into slot i: e has just entered the AET there.
  void enter(std::size_t i, std::int32_t e) {
    const BoundEdge& be = bt_.edges[static_cast<std::size_t>(e)];
    geo_[i] = {be.bot.x, be.bot.y, be.top.x - be.bot.x, be.top.y - be.bot.y};
    ty_[i] = be.top.y;
    ++edges_;
  }

  /// Start a window at its bottom line y: the edges crossing it become the
  /// AET in (x on the line, slope, edge id) order — the order the AET of a
  /// whole-input sweep holds just above y — their parity flags come from
  /// the prefix count (Lemmas 2–3), and every interior run between them
  /// opens a partial contour along the line.
  void seed_line(double y) {
    auto& keys = sc_.keys;  // (x on the line, edge id)
    keys.clear();
    for (const std::int32_t e : win_.seeds) {
      const BoundEdge& be = bt_.edges[static_cast<std::size_t>(e)];
      keys.emplace_back(geom::x_at_y(be.bot, be.top, y), e);
    }
    std::sort(keys.begin(), keys.end(), [this](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first < b.first;
      const double sa = bt_.edges[static_cast<std::size_t>(a.second)].dxdy;
      const double sb = bt_.edges[static_cast<std::size_t>(b.second)].dxdy;
      if (sa != sb) return sa < sb;
      return a.second < b.second;
    });
    const std::size_t n = keys.size();
    for_each_slot_array(xb_, [n](auto& v) { v.resize(n); });
    for (std::size_t i = 0; i < n; ++i) {
      aet_[i].e = keys[i].second;
      xb_[i] = keys[i].first;
      enter(i, keys[i].second);
    }
    auto at = [this](std::size_t i) -> SweepEntry& { return aet_[i]; };
    label_by_parity(bt_, aet_.size(), at);
    open_line_runs(
        pool_, bt_, aet_.size(), at, [this](std::size_t i) { return xb_[i]; },
        y, op_);
    sync_pos(0);
  }

  /// Debug self-check (VattiScratch::validate or PSCLIP_VALIDATE): parity
  /// flags of every AET entry must equal the accumulated flips of the
  /// entries to its left, and the AET must be x-ordered at the given
  /// scanline. Violations print to stderr and count into
  /// VattiStats::validate_failures.
  void validate_flags(double y, const char* where) {
    bool s = false, c = false;
    for (std::size_t i = 0; i < aet_.size(); ++i) {
      const SweepEntry& a = aet_[i];
      if (a.left_s != s || a.left_c != c) {
        ++validate_failures_;
        std::fprintf(stderr,
                     "[psclip] flag mismatch %s y=%.17g idx=%zu "
                     "have=(%d,%d) want=(%d,%d)\n",
                     where, y, i, (int)a.left_s, (int)a.left_c, (int)s,
                     (int)c);
      }
      s ^= flip_s(a);
      c ^= flip_c(a);
    }
    for (std::size_t i = 1; i < aet_.size(); ++i) {
      const BoundEdge& ep = edge(aet_[i - 1]);
      const BoundEdge& ec = edge(aet_[i]);
      const double xp = ep.top.y == y ? ep.top.x : geom::x_at_y(ep.bot, ep.top, y);
      const double xc = ec.top.y == y ? ec.top.x : geom::x_at_y(ec.bot, ec.top, y);
      if (xc < xp - 1e-12) {
        ++validate_failures_;
        std::fprintf(stderr,
                     "[psclip] order violation %s y=%.17g idx=%zu "
                     "x[%zu]=%.17g > x[%zu]=%.17g\n",
                     where, y, i, i - 1, xp, i, xc);
      }
    }
  }

  /// Debug self-check of the slot geometry: every slot must hold its
  /// edge's, so the fill computes geom::x_at_y and records exactly the
  /// edges ending at yt.
  void validate_slots(double yt) {
    std::size_t ending = 0;
    for (std::size_t i = 0; i < aet_.size(); ++i) {
      const BoundEdge& be = edge(aet_[i]);
      const SlotEdge& g = geo_[i];
      if (g.bx != be.bot.x || g.by != be.bot.y ||
          g.dx != be.top.x - be.bot.x || g.dy != be.top.y - be.bot.y ||
          ty_[i] != be.top.y) {
        ++validate_failures_;
        std::fprintf(stderr,
                     "[psclip] slot geometry mismatch y=%.17g idx=%zu\n", yt,
                     i);
      }
      if (be.top.y == yt) ++ending;
    }
    if (ending != sc_.ends.size()) {
      ++validate_failures_;
      std::fprintf(stderr,
                   "[psclip] end mismatch y=%.17g recorded=%zu ending=%zu\n",
                   yt, sc_.ends.size(), ending);
    }
  }

  [[nodiscard]] const BoundEdge& edge(const SweepEntry& a) const {
    return bt_.edges[static_cast<std::size_t>(a.e)];
  }
  [[nodiscard]] bool flip_s(const SweepEntry& a) const {
    return !edge(a).is_clip;
  }
  [[nodiscard]] bool flip_c(const SweepEntry& a) const {
    return edge(a).is_clip;
  }
  [[nodiscard]] bool res(bool s, bool c) const {
    return geom::in_result(s, c, op_);
  }

  /// Rewrite the flat position index for AET slots [from, end) after a
  /// structural edit shifted them. O(1) writes per shifted slot — the shift
  /// itself already paid the same traffic.
  void sync_pos(std::size_t from) {
    for (std::size_t i = from; i < aet_.size(); ++i)
      pos_[static_cast<std::size_t>(aet_[i].e)] = static_cast<std::int32_t>(i);
    ++pos_rebuilds_;
  }

  /// Bisection identical to std::upper_bound (same midpoint sequence) over
  /// an index range, with the minima comparator: key (x, slope) against an
  /// element's (xb, dxdy).
  template <typename XbAt, typename DxdyAt>
  std::size_t upper_bound_key(double x, double slope, std::size_t n,
                              XbAt xb_at, DxdyAt dxdy_at) const {
    std::size_t lo = 0, hi = n;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const double ex = xb_at(mid);
      const bool key_less = x != ex ? x < ex : slope < dxdy_at(mid);
      if (key_less)
        hi = mid;
      else
        lo = mid + 1;
    }
    return lo;
  }

  /// Build the Active-pair fields for one local minimum given the parity
  /// flags of the entry to its left in the (conceptual) post-insert AET.
  std::pair<SweepEntry, SweepEntry> make_min_pair(const LocalMin& lm, bool ls,
                                                  bool lc) {
    const auto eL = lm.edge_left;
    const auto eR = lm.edge_right;
    const bool fs = !bt_.edges[static_cast<std::size_t>(eL)].is_clip;
    const bool fc = !fs;
    const bool outside = res(ls, lc);            // sector around the min
    const bool between = res(ls ^ fs, lc ^ fc);  // sector above, inside

    std::int32_t poly = -1;
    if (outside != between) {
      // Contributing minimum. If the wedge above is interior this starts
      // an exterior contour (left edge feeds the front); if the
      // surroundings are interior it opens a hole (roles swap).
      poly = between ? pool_.create(lm.pt, /*hole=*/false, eL, eR)
                     : pool_.create(lm.pt, /*hole=*/true, eR, eL);
    }

    SweepEntry left;
    left.e = eL;
    left.left_s = ls;
    left.left_c = lc;
    left.poly = poly;
    SweepEntry right;
    right.e = eR;
    right.left_s = ls ^ fs;
    right.left_c = lc ^ fc;
    right.poly = poly;
    return {left, right};
  }

  /// Insert this scanline's local minima: stage every minimum, then splice
  /// them into the AET in one in-place pass instead of one O(|AET|)
  /// memmove each. Each minimum bisects the conceptual sequence (old
  /// entries + minima staged so far) that one-at-a-time insertion would
  /// search, so positions, neighbour flags and pool-creation order are
  /// those of inserting the minima one by one in (y, x) order.
  void insert_minima(double yb, std::size_t& next_min) {
    if (next_min >= min_end_ || bt_.minima[next_min].pt.y != yb) return;
    std::vector<StagedEntry>& nb = sc_.staged;
    nb.clear();
    const std::size_t old_n = aet_.size();

    // Resolve a merged-view index to its element: staged entry t sits at
    // merged index nb[t].base + t (bases are non-decreasing, so the merged
    // indices are strictly increasing).
    auto resolve = [&](std::size_t idx) -> std::pair<bool, std::size_t> {
      // Returns {is_staged, index-into-nb-or-old}.
      std::size_t lo = 0, hi = nb.size();
      while (lo < hi) {  // first t with nb[t].base + t >= idx
        const std::size_t mid = lo + (hi - lo) / 2;
        if (nb[mid].base + mid >= idx)
          hi = mid;
        else
          lo = mid + 1;
      }
      if (lo < nb.size() && nb[lo].base + lo == idx) return {true, lo};
      return {false, idx - lo};  // lo staged entries precede idx
    };

    while (next_min < min_end_ && bt_.minima[next_min].pt.y == yb) {
      const LocalMin& lm = bt_.minima[next_min++];
      const double slope_l =
          bt_.edges[static_cast<std::size_t>(lm.edge_left)].dxdy;

      // Bisect the merged view (old AET + staged pairs).
      const std::size_t p = upper_bound_key(
          lm.pt.x, slope_l, old_n + nb.size(),
          [&](std::size_t i) {
            const auto [st, k] = resolve(i);
            return st ? nb[k].x : xb_[k];
          },
          [&](std::size_t i) {
            const auto [st, k] = resolve(i);
            return st ? edge(nb[k].ent).dxdy : edge(aet_[k]).dxdy;
          });

      bool ls = false, lc = false;
      if (p > 0) {
        const auto [st, k] = resolve(p - 1);
        const SweepEntry& prev = st ? nb[k].ent : aet_[k];
        ls = prev.left_s ^ flip_s(prev);
        lc = prev.left_c ^ flip_c(prev);
      }
      const auto [left, right] = make_min_pair(lm, ls, lc);

      // Stage the pair at merged position p: staged entries before p keep
      // their slots, the rest shift right by two.
      std::size_t before = 0;  // staged entries strictly left of p
      while (before < nb.size() && nb[before].base + before < p) ++before;
      const std::size_t base = p - before;
      nb.insert(nb.begin() + static_cast<std::ptrdiff_t>(before),
                {StagedEntry{base, left, lm.pt.x},
                 StagedEntry{base, right, lm.pt.x}});
    }

    // One in-place pass from the back: grow every slot array, then move
    // each run of old slots right past the staged entries that land below
    // it. Slots left of the first staged base never move.
    const std::size_t n = old_n + nb.size();
    for_each_slot_array(xb_, [n](auto& v) { v.resize(n); });
    std::size_t src = old_n;  // old slots [0, src) are still in place
    std::size_t dst = n;      // slots [dst, n) are final
    for (std::size_t t = nb.size(); t-- > 0;) {
      const std::size_t base = nb[t].base;
      for_each_slot_array(xb_, [&](auto& v) {
        std::copy_backward(v.begin() + static_cast<std::ptrdiff_t>(base),
                           v.begin() + static_cast<std::ptrdiff_t>(src),
                           v.begin() + static_cast<std::ptrdiff_t>(dst));
      });
      dst -= src - base + 1;
      src = base;
      aet_[dst] = nb[t].ent;
      xb_[dst] = nb[t].x;
      enter(dst, nb[t].ent.e);
    }
    sync_pos(nb.front().base);
  }

  void process_intersections(double yb, double yt) {
    const std::size_t n = aet_.size();
    aet_visits_ += static_cast<std::int64_t>(n);
    xt_.resize(n);
    fill_top_x(xt_.data(), geo_.data(), n, yt);
    // Record the edges ending at yt for the top step, and place them
    // exactly at their top vertex.
    auto& ends = sc_.ends;
    ends.clear();
    find_ends(ty_.data(), n, yt, ends);
    for (std::int32_t& end : ends) {
      const auto i = static_cast<std::size_t>(end);
      end = aet_[i].e;
      xt_[i] = bt_.edges[static_cast<std::size_t>(end)].top.x;
    }
    if (validate_) validate_slots(yt);
    // Detect the crossing-free common case: the AET left the previous beam
    // sorted by that beam's top x, so between beams it is *nearly* sorted —
    // most beams have no adjacent inversion at all. The adjacent strict-<
    // checks are exactly the insertion sort's swap condition, so "no
    // inversion here" is precisely "the sort would perform zero swaps"
    // (NaN included: both comparisons are false, neither path swaps).
    if (!has_inversion(xt_.data(), n)) {
      // Zero swaps => zero crossings => nothing to emit.
      ++sorted_beams_;
      return;
    }

    // Phase 1 — enumerate the beam's crossings as the inversions between
    // the bottom and top x-orders (Lemma 4), on a scratch copy so that no
    // sweep state changes yet. The event and key buffers live in the
    // VattiScratch (cleared here, capacity retained): this loop runs once
    // per scanbeam, and per-beam reallocation is exactly the churn the
    // per-worker slab arenas exist to remove.
    std::vector<Crossing>& events = sc_.events;
    events.clear();
    {
      auto& ks = sc_.keys;  // (xt, edge id)
      ks.clear();
      ks.reserve(n);
      for (std::size_t i = 0; i < n; ++i) ks.emplace_back(xt_[i], aet_[i].e);
      for (std::size_t i = 1; i < ks.size(); ++i) {
        std::size_t j = i;
        while (j > 0 && ks[j].first < ks[j - 1].first) {
          const BoundEdge& eu =
              bt_.edges[static_cast<std::size_t>(ks[j - 1].second)];
          const BoundEdge& ev =
              bt_.edges[static_cast<std::size_t>(ks[j].second)];
          Point p =
              geom::line_intersection(eu.bot, eu.top, ev.bot, ev.top);
          // A genuine crossing lies inside the beam up to rounding; allow
          // one beam height of slack before distrusting the division.
          const double slack = yt - yb;
          if (!(p.y >= yb - slack && p.y <= yt + slack) ||
              !std::isfinite(p.x)) {
            // Nearly parallel edges (e.g. near-horizontals cut at a slab
            // boundary) can invert in rounded x-order while their analytic
            // intersection is far away or at infinity (cross(r,s)
            // underflows). The swap is still required to restore the top
            // x-order; emit at mid-beam, where the two edges sit within
            // rounding of each other.
            const double ym = 0.5 * (yb + yt);
            const double xu = geom::x_at_y(eu.bot, eu.top, ym);
            const double xv = geom::x_at_y(ev.bot, ev.top, ym);
            p = {0.5 * (xu + xv), ym};
          }
          events.push_back({ks[j - 1].second, ks[j].second, p});
          std::swap(ks[j - 1], ks[j]);
          --j;
        }
      }
    }
    if (events.empty()) return;

    // Phase 2 — the shared crossing step (seq/sweep_events.hpp) over the
    // flat position index, which is maintained across beams.
    intersections_ += static_cast<std::int64_t>(events.size());
    process_crossings(
        pool_, bt_, n, [this](std::size_t i) -> SweepEntry& { return aet_[i]; },
        [this](std::int32_t e) {
          return static_cast<std::size_t>(pos_[static_cast<std::size_t>(e)]);
        },
        [this](std::size_t iu, std::size_t iv) {
          for_each_slot_array(xt_, [&](auto& v) { std::swap(v[iu], v[iv]); });
          pos_[static_cast<std::size_t>(aet_[iu].e)] =
              static_cast<std::int32_t>(iu);
          pos_[static_cast<std::size_t>(aet_[iv].e)] =
              static_cast<std::int32_t>(iv);
        },
        events, sc_.deferred, op_);
  }

  /// The beam-top step over the edges ending at the beam top only
  /// (sc_.ends, recorded by the fill). Ends are handled in ascending AET
  /// position — the order a walk over the whole AET meets them — with
  /// removals deferred to one compaction pass: a removed slot is marked by
  /// e = -1 until then.
  void process_top() {
    auto& ends = sc_.ends;
    if (ends.empty()) return;
    // Slots in ascending order; there are rarely more than two.
    for (std::size_t k = 0; k < ends.size(); ++k) {
      const std::int32_t slot = pos_[static_cast<std::size_t>(ends[k])];
      std::size_t t = k;
      for (; t > 0 && ends[t - 1] > slot; --t) ends[t] = ends[t - 1];
      ends[t] = slot;
    }
    const std::size_t none = aet_.size();
    std::size_t first_removed = none;
    for (std::size_t k = 0; k < ends.size(); ++k) {
      const auto i = static_cast<std::size_t>(ends[k]);
      SweepEntry& a = aet_[i];
      if (a.e < 0) continue;  // consumed as an earlier maximum's partner
      ++top_visits_;
      const BoundEdge& e = edge(a);
      if (e.next >= 0) {
        // Intermediate vertex: the bound continues with the next edge.
        const bool outside = res(a.left_s, a.left_c);
        const bool inside = res(a.left_s ^ flip_s(a), a.left_c ^ flip_c(a));
        if (outside != inside && a.poly >= 0)
          pool_.extend_reassign(a.poly, a.e, e.top, e.next);
        a.e = e.next;
        enter(i, e.next);
        pos_[static_cast<std::size_t>(e.next)] = static_cast<std::int32_t>(i);
        continue;
      }
      // Local maximum: the partner is the next unconsumed end, in AET
      // order, at the same point. Every AET edge ending at yt is in `ends`,
      // so no other slot can match.
      std::size_t kj = k + 1;
      for (; kj < ends.size(); ++kj) {
        const SweepEntry& b = aet_[static_cast<std::size_t>(ends[kj])];
        if (b.e < 0) continue;
        ++top_visits_;
        const BoundEdge& pe = edge(b);
        if (pe.next < 0 && pe.top == e.top) break;
      }
      first_removed = std::min(first_removed, i);
      if (kj == ends.size()) {
        // No partner (degenerate input slipped through): drop the edge.
        a.e = -1;
        continue;
      }
      const auto j = static_cast<std::size_t>(ends[kj]);
      // In general position the partner is adjacent. If ties in xt left
      // strays between them, repair their parity for the removal of `a`
      // (removing the partner on their right does not affect them).
      const bool fs = flip_s(a), fc = flip_c(a);
      for (std::size_t t = i + 1; t < j; ++t) {
        if (aet_[t].e < 0) continue;
        ++top_visits_;
        aet_[t].left_s = aet_[t].left_s ^ fs;
        aet_[t].left_c = aet_[t].left_c ^ fc;
      }
      const bool outside = res(a.left_s, a.left_c);
      const bool between = res(a.left_s ^ fs, a.left_c ^ fc);
      SweepEntry& b = aet_[j];
      if (outside != between && a.poly >= 0 && b.poly >= 0)
        pool_.close(a.poly, a.e, b.poly, b.e, e.top);
      a.e = -1;
      b.e = -1;
    }
    if (first_removed == none) return;
    // Compact: close the removed slots' gaps with one block move per
    // surviving run, then refresh the shifted positions.
    std::size_t w = first_removed;  // next free slot
    std::size_t r = first_removed;  // start of the next surviving run
    auto move_run = [&](std::size_t end) {
      if (r < end)
        for_each_slot_array(xt_, [&](auto& v) {
          std::copy(v.begin() + static_cast<std::ptrdiff_t>(r),
                    v.begin() + static_cast<std::ptrdiff_t>(end),
                    v.begin() + static_cast<std::ptrdiff_t>(w));
        });
      w += end - r;
    };
    for (const std::int32_t p : ends) {
      const auto slot = static_cast<std::size_t>(p);
      if (slot < first_removed || aet_[slot].e >= 0) continue;
      move_run(slot);
      r = slot + 1;
    }
    move_run(aet_.size());
    for_each_slot_array(xt_, [w](auto& v) { v.resize(w); });
    sync_pos(first_removed);
  }
};

}  // namespace

namespace {

/// The one sweep path behind vatti_clip and vatti_sweep_window: sc.ys
/// holds the scanlines of the window `w` over `bt`; run the sweep, feed
/// the trace sink, apply the kVattiSweep corruption hook.
PolygonSet run_sweep(const BoundTable& bt, VattiScratch& sc, BoolOp op,
                     VattiStats* stats, const SweepWindow& w) {
  sc.impl->begin_run();
  ++sc.runs;
  obs::TraceSink* const sink = obs::global_sink();
  VattiStats sink_stats;
  VattiStats* st = stats ? stats : (sink ? &sink_stats : nullptr);
  Sweep sweep(bt, *sc.impl, op, sc.validate, w);
  PolygonSet out = sweep.run(st);
  if (sink && st) {
    sink->add_counter("vatti.scanbeams", st->scanbeams);
    sink->add_counter("vatti.aet_visits", st->aet_visits);
    sink->add_counter("vatti.top_visits", st->top_visits);
    sink->add_counter("vatti.sorted_beams", st->sorted_beams);
    sink->add_counter("vatti.pos_rebuilds", st->pos_rebuilds);
  }
  if (par::fault::corrupt(par::fault::Site::kVattiSweep)) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    out.add({{nan, nan}, {0.0, 0.0}, {1.0, 1.0}});
  }
  return out;
}

}  // namespace

PolygonSet vatti_clip(const PolygonSet& subject, const PolygonSet& clip,
                      BoolOp op, VattiStats* stats, VattiScratch* scratch) {
  par::fault::inject(par::fault::Site::kVattiSweep);
  VattiScratch local;
  VattiScratch& sc = scratch ? *scratch : local;
  BoundTable& bt = sc.impl->bt;
  build_bounds_into(bt, sc.impl->ys, subject, clip);
  return run_sweep(bt, sc, op, stats, SweepWindow{});
}

PolygonSet vatti_sweep_window(const BoundTable& bt, const SweepWindow& w,
                              BoolOp op, VattiStats* stats,
                              VattiScratch& scratch) {
  par::fault::inject(par::fault::Site::kVattiSweep);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double>& ys = scratch.impl->ys;
  ys.clear();
  ys.reserve(w.ys.size() + 2);
  if (w.y_lo > -kInf) ys.push_back(w.y_lo);
  ys.insert(ys.end(), w.ys.begin(), w.ys.end());
  if (w.y_hi < kInf) ys.push_back(w.y_hi);
  return run_sweep(bt, scratch, op, stats, w);
}

}  // namespace psclip::seq
