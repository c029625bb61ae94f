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
// Data layout and per-beam work (DESIGN.md §9): the AET is three arrays
// indexed by slot — the sweep-status entries (SweepEntry), the slot edge's
// widened x-extent and each slot's
// order certificate: the first scanline at which the computed x's of the
// slot's edge and of its right neighbour must be compared again. Below it
// they cannot invert. A certificate comes from the edges' x-extents, from
// a shared bottom or top vertex, or from the gap between their lines at a
// scanline where both x's are known; each carries a rigorous bound on the
// rounding of the computed x's and a small relative margin. A pair that is
// out of order, non-finite or closer than the bound is not certified and
// is compared every beam. No x is kept across beams. One event queue (a
// binary heap, O(|AET|) entries) holds every active edge's end and every
// certificate that expires before both of its edges end, so a beam pops
// only its ends and its expired certificates. The beam's insertion sort to
// the top scanline's x-order is replayed from the pairs that need a
// comparison, evaluating x only where the sort reads it, so its swap list
// — the beam's crossings — is a full sort's byte for byte. The pairs a
// beam compared, reordered or changed are certified again at its top. A
// flat edge-id -> AET-index array is maintained incrementally across beams
// (O(1) per crossing swap, one suffix refresh per structural edit batch).
//
// The beam top is event-driven: it visits only the ends the queue popped,
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
#include <bit>
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

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One not-yet-merged AET insertion staged by the batched minima pass:
/// the pair's entries go immediately before old-AET index `base`.
struct StagedEntry {
  std::size_t base;
  SweepEntry ent;
  double x;  ///< beam-bottom x (the minimum's x)
};

/// One entry of the sweep's event queue, due at the first scanline y >= at:
/// the end of active edge `e` (at = its top y), or the expiry of the order
/// certificate of `e` and its right neighbour (stale once that certificate
/// was replaced).
struct QueueEntry {
  double at;
  std::int32_t e;
  bool end;
};

// The queue is a binary min-heap on `at` (no NaN keys enter it).

void heap_push(std::vector<QueueEntry>& h, const QueueEntry& q) {
  std::size_t i = h.size();
  h.push_back(q);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(q.at < h[parent].at)) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = q;
}

/// Replace the front with q and restore the heap.
void heap_replace_front(std::vector<QueueEntry>& h, const QueueEntry& q) {
  const std::size_t n = h.size();
  std::size_t i = 0;
  for (;;) {
    std::size_t c = 2 * i + 1;
    if (c >= n) break;
    if (c + 1 < n && h[c + 1].at < h[c].at) ++c;
    if (!(h[c].at < q.at)) break;
    h[i] = h[c];
    i = c;
  }
  h[i] = q;
}

void heap_pop(std::vector<QueueEntry>& h) {
  const QueueEntry last = h.back();
  h.pop_back();
  if (!h.empty()) heap_replace_front(h, last);
}

/// A position of the beam's (virtual) insertion sort: key x, edge e. Valid
/// for the current beam only when `stamp` equals the beam's stamp;
/// otherwise the position still holds its slot's edge, not yet evaluated.
struct SortSlot {
  double x;
  std::int32_t e;
  std::uint32_t stamp;
};

/// x of edge `be` on scanline y, exactly as the sweep reads it: its top
/// vertex's x at its top, its bottom vertex's x at its bottom, and
/// geom::x_at_y in between (no FMA: the build disables contraction).
double x_on(const BoundEdge& be, double y) {
  if (y == be.top.y) return be.top.x;
  if (y == be.bot.y) return be.bot.x;
  return geom::x_at_y(be.bot, be.top, y);
}

/// Bound on |x_on(be, y) − L(y)| over y in [bot.y, top.y], where L is the
/// exact line through bot with the rounded direction (top.x − bot.x,
/// top.y − bot.y) that x_at_y evaluates: twice the forward error
/// u·|bot.x| + 4u·|dx| of its four rounded operations (u = 2^-53; the top
/// vertex's own x lies within 2u·|dx| of L), plus a floor for the
/// subnormal range, where the product and the quotient err by up to
/// 2^-1075 absolutely, so x by up to (|dx| + 1)·2^-1075. The floor is
/// taken as (|dx| + 2)·2^-1022, far above that: it stays a normal number,
/// and arithmetic on subnormals costs a microcode assist per operation.
double x_error(const BoundEdge& be) {
  const double dx = std::fabs(be.top.x - be.bot.x);
  return 0x1p-52 * (std::fabs(be.bot.x) + 4.0 * dx) + (dx + 2.0) * 0x1p-1022;
}

/// The next double below v (v finite; not NaN).
double next_down(double v) {
  if (v == 0.0) return -0x1p-1074;
  const auto bits = std::bit_cast<std::uint64_t>(v);
  return std::bit_cast<double>(v > 0.0 ? bits - 1 : bits + 1);
}

// Order certificates. A certificate is the first scanline value at which
// a pair of adjacent edges, a left of b, must be compared again: for every
// scanline y below it (and within both edges' y-ranges) the computed x's
// keep x_on(b, y) < x_on(a, y) false. +inf certifies the pair for good,
// -inf not at all. Pairs whose Extents are apart get +inf; the others get
// one of the certificates below.

/// Bounds on every x an edge's x_on can compute: its x-extent widened by
/// 2^-46·M + 2^-1019, M = max(|bot.x|, |top.x|). The computed x stays
/// within 1.5·x_error of the extent, at most 13.5·2^-52·M +
/// (3·M + 3)·2^-1022, so the margin covers it and the rounding of the
/// bounds. Kept per AET slot: two edges whose Extents are apart never
/// invert (the extent certificate, +inf), and a minimum left or right of
/// an entry's Extent needs no x in the bisection.
struct Extent {
  double lo, hi;
};

Extent extent_of(const BoundEdge& be) {
  const double m = std::max(std::fabs(be.bot.x), std::fabs(be.top.x));
  const double margin = 0x1p-46 * m + 0x1p-1019;
  return {std::min(be.bot.x, be.top.x) - margin,
          std::max(be.bot.x, be.top.x) + margin};
}

/// The certificate of two edges a (left) and b that start at one point at
/// y0 — a local minimum's pair — for the scanlines from y1 > y0 on. Their
/// lines meet at that point, so the gap at y is at least −rate·(y − y0)
/// (rate as in gap_certificate) and the computed x's stay within
/// E = x_error(a) + x_error(b) of it: once −rate·(y1 − y0) > E the pair is
/// ordered for good.
double minimum_certificate(const BoundEdge& a, const BoundEdge& b, double y0,
                           double y1) {
  const double rate = (a.dxdy - b.dxdy) +
                      0x1p-51 * (std::fabs(a.dxdy) + std::fabs(b.dxdy)) +
                      0x1p-1022;
  const double spread = -rate * ((y1 - y0) * (1.0 - 0x1p-51));
  const double err = (x_error(a) + x_error(b)) * (1.0 + 0x1p-50);
  return spread > err ? kInf : -kInf;
}

/// The certificate of two edges a (left) and b that end at one point at
/// y = T — a local maximum's pair — from their geometry alone. Their lines
/// pass within 2u·|dx| of that point, so for y <= T the gap is at least
/// c·(T − y) − E, with c = dxdy_a − dxdy_b − 4u(|dxdy_a| + |dxdy_b|) a
/// lower bound on the rate at which they converge, and the computed x's
/// stay within E = x_error(a) + x_error(b) of it: the order holds up to
/// T − 2E/c. -inf when c is not positive.
double apex_certificate(const BoundEdge& a, const BoundEdge& b) {
  const double c = (a.dxdy - b.dxdy) -
                   0x1p-51 * (std::fabs(a.dxdy) + std::fabs(b.dxdy)) -
                   0x1p-1022;
  if (!(c > 0.0)) return -kInf;
  const double h =
      2.0 * (x_error(a) + x_error(b)) * (1.0 + 0x1p-50) / c * (1.0 + 0x1p-50);
  const double key = next_down(a.top.y - h);
  return key < kInf ? key : -kInf;
}

/// The gap certificate, from the pair's computed x's xa, xb on scanline y0.
/// With E = ea + eb (the x_error bounds), the lines' gap at y0 is at least
/// xb − xa − E and shrinks at most at rate dxdy_a − dxdy_b +
/// 4u(|dxdy_a| + |dxdy_b|) (the slopes' and their difference's rounding;
/// the floor keeps it a normal number), and the computed x's stay within E
/// of the lines, so the order holds while
/// (xb − xa − 2E) − rate·(y − y0) >= 0. The relative margins cover the
/// rounding of this computation itself, and a scanline below
/// fl(y0 + h) is at most y0 + h. -inf when the pair is out of order,
/// non-finite or closer than 2E.
double gap_certificate(const BoundEdge& a, double xa, double ea,
                       const BoundEdge& b, double xb, double eb, double y0) {
  const double err = 2.0 * (ea + eb);
  const double slack = (xb - xa) * (1.0 - 0x1p-51) - err * (1.0 + 0x1p-51);
  if (!(slack > 0.0 && slack < kInf)) return -kInf;
  const double rate = (a.dxdy - b.dxdy) +
                      0x1p-51 * (std::fabs(a.dxdy) + std::fabs(b.dxdy)) +
                      0x1p-1022;
  if (!(rate > 0.0)) return rate <= 0.0 ? kInf : -kInf;
  return y0 + slack / rate * (1.0 - 0x1p-50);
}

/// Sort and deduplicate a short list (a beam's checks, marks or ends:
/// rarely more than a handful) without std::sort's call overhead.
template <typename T>
void sort_unique(std::vector<T>& v) {
  if (v.size() > 16) {
    std::sort(v.begin(), v.end());
  } else {
    for (std::size_t i = 1; i < v.size(); ++i) {
      const T x = v[i];
      std::size_t j = i;
      for (; j > 0 && x < v[j - 1]; --j) v[j] = v[j - 1];
      v[j] = x;
    }
  }
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// PSCLIP_VALIDATE presence, read once per process (not per sweep).
bool env_validate_enabled() {
  static const bool on = std::getenv("PSCLIP_VALIDATE") != nullptr;
  return on;
}

}  // namespace

/// All buffers the sweep works in. Owned by VattiScratch so that a
/// reused scratch clears them (capacity retained) instead of paying a
/// fresh round of allocations per call — and, for the per-beam event
/// buffers, per scanbeam.
struct VattiScratch::Impl {
  BoundTable bt;
  std::vector<double> ys;          ///< scanbeam schedule
  geom::Contour prep;              ///< build_bounds_into's prepared contour
  // The active edge table, indexed by slot: the sweep-status entries and
  // the order certificate of each slot and its right neighbour.
  std::vector<SweepEntry> aet;
  std::vector<double> cert;
  std::vector<Extent> ext;         ///< the slot edge's Extent
  std::vector<std::int32_t> pos;   ///< edge id -> AET index
  std::vector<QueueEntry> queue;   ///< ends and certificate expiries (heap)
  /// The beam's insertion sort positions (see SortSlot); sized to the AET,
  /// reset per beam by bumping `stamp`, not by clearing.
  std::vector<SortSlot> sort;
  std::uint32_t stamp = 0;
  /// Left edges of the pairs the next beam must compare: new pairs and
  /// pairs without a certificate.
  std::vector<std::int32_t> dirty;
  std::vector<std::size_t> checks;  ///< the beam's pairs, by right slot
  std::vector<std::size_t> marks;   ///< left slots of pairs to certify
  /// The current beam's ends: ids of the edges ending at its top
  /// scanline, popped from the queue and turned into AET slots by the top
  /// step.
  std::vector<std::int32_t> ends;
  OutPolyPool pool;
  // The beam's crossings and process_crossings' scratch:
  std::vector<Crossing> events;
  std::vector<Crossing> deferred;
  std::vector<std::pair<double, std::int32_t>> keys;  ///< seed line sort
  std::vector<StagedEntry> staged;  ///< insert_minima batch staging
  // Validation only: every slot's x at the beam top and a full sort's
  // swap list.
  std::vector<std::pair<double, std::int32_t>> eager;
  std::vector<std::pair<std::int32_t, std::int32_t>> eager_swaps;

  void begin_run() {
    aet.clear();
    cert.clear();
    queue.clear();
    dirty.clear();
    marks.clear();
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
  return vec(s.bt.edges) + vec(s.bt.minima) + vec(s.ys) + vec(s.prep.pts) +
         vec(s.aet) +
         vec(s.cert) + vec(s.ext) + vec(s.pos) + vec(s.queue) + vec(s.sort) +
         vec(s.dirty) + vec(s.checks) + vec(s.marks) + vec(s.ends) +
         vec(s.events) + vec(s.deferred) + vec(s.keys) + vec(s.staged) +
         vec(s.eager) + vec(s.eager_swaps) + s.pool.resident_bytes();
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
        cert_(sc.cert),
        ext_(sc.ext),
        pos_(sc.pos),
        queue_(sc.queue),
        sort_(sc.sort),
        dirty_(sc.dirty),
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
    // cooperative cancellation checkpoint and the preemptive charge for
    // output growth — the only structure a hostile input can blow up
    // beyond any input-proportional bound. The charge is a watermark over
    // the bytes this run's output occupies in the pool (its vertices and
    // records; not the capacity a reused pool kept from earlier runs, so
    // the outcome follows from the request alone) and releases with this
    // scope if the sweep unwinds. Both run every
    // kGovernedBeams beams (and the checkpoint reads the clock on every
    // 32nd call): a beam that only pops an end costs a few hundred
    // cycles, and the bench_governance_overhead gate holds their share
    // under 1%.
    constexpr std::size_t kGovernedBeams = 8;
    par::gov::ScopedCharge out_charge;
    for (std::size_t i = 0; i + 1 < ys.size(); ++i) {
      if (i % kGovernedBeams == 0) {
        par::gov::checkpoint();
        out_charge.raise_to(pool_.used_bytes());
      }
      const double yb = ys[i];
      const double yt = ys[i + 1];
      insert_minima(yb, yt, next_min);
      if (validate_) validate_flags(yb, "after-minima");
      aet_visits_ += static_cast<std::int64_t>(aet_.size());
      pop_events(yt);
      process_intersections(yb, yt);
      process_top(yt);
      if (validate_) validate_flags(yt, "after-beam");
      if (stats) {
        ++stats->scanbeams;
        stats->max_aet = std::max<std::int64_t>(
            stats->max_aet, static_cast<std::int64_t>(aet_.size()));
      }
    }
    // A window's top line: the edges still active cross it, and every
    // interior run between them closes along the line.
    if (win_.y_hi < kInf)
      close_line_runs(
          pool_, bt_, aet_.size(),
          [this](std::size_t i) -> SweepEntry& { return aet_[i]; },
          [this](std::size_t i) { return x_at(aet_[i].e, win_.y_hi); },
          win_.y_hi, op_);
    if (stats) {
      stats->edges = edges_;
      stats->boundary_edges = static_cast<std::int64_t>(win_.seeds.size());
      stats->intersections = intersections_;
      stats->sorted_beams = sorted_beams_;
      stats->pos_rebuilds = pos_rebuilds_;
      stats->aet_visits = aet_visits_;
      stats->x_evals = x_evals_;
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
  std::vector<double>& cert_;
  std::vector<Extent>& ext_;
  std::vector<std::int32_t>& pos_;
  std::vector<QueueEntry>& queue_;
  std::vector<SortSlot>& sort_;
  std::vector<std::int32_t>& dirty_;
  OutPolyPool& pool_;
  const SweepWindow& win_;
  std::size_t min_end_;        ///< end of the window's minima range
  std::int64_t edges_ = 0;     ///< edges that entered the AET
  std::int64_t intersections_ = 0;
  std::int64_t sorted_beams_ = 0;
  std::int64_t pos_rebuilds_ = 0;
  std::int64_t aet_visits_ = 0;
  std::int64_t x_evals_ = 0;
  std::int64_t top_visits_ = 0;
  std::int64_t validate_failures_ = 0;
  bool validate_ = false;

  /// Apply `f` to every per-slot array the edit passes move.
  template <typename F>
  void for_each_slot_array(F&& f) {
    f(aet_);
    f(cert_);
    f(ext_);
  }

  /// Edge e has just entered the AET at slot i: note its Extent and queue
  /// its end.
  void enter(std::size_t i, std::int32_t e) {
    ext_[i] = extent_of(bt_.edges[static_cast<std::size_t>(e)]);
    const double top = bt_.edges[static_cast<std::size_t>(e)].top.y;
    // A NaN key would break the heap order; such an edge never ends (no
    // scanline equals NaN), so it takes no entry.
    if (!std::isnan(top)) heap_push(queue_, {top, e, true});
    ++edges_;
  }

  /// x of edge e on scanline y, counted.
  double x_at(std::int32_t e, double y) {
    ++x_evals_;
    return x_on(bt_.edges[static_cast<std::size_t>(e)], y);
  }

  /// The AET slot of edge e, or aet_.size() when e is not active.
  [[nodiscard]] std::size_t slot_of(std::int32_t e) const {
    const auto p = static_cast<std::size_t>(pos_[static_cast<std::size_t>(e)]);
    return p < aet_.size() && aet_[p].e == e ? p : aet_.size();
  }

  /// Slot i's pair with its right neighbour needs a check next beam.
  void uncertify(std::size_t i) {
    cert_[i] = -kInf;
    dirty_.push_back(aet_[i].e);
  }

  /// Start a window at its bottom line y: the edges crossing it become the
  /// AET in (x on the line, slope, edge id) order — the order the AET of a
  /// whole-input sweep holds just above y — their parity flags come from
  /// the prefix count (Lemmas 2–3), and every interior run between them
  /// opens a partial contour along the line. No pair is certified yet.
  void seed_line(double y) {
    auto& keys = sc_.keys;  // (x on the line, edge id)
    keys.clear();
    for (const std::int32_t e : win_.seeds) keys.emplace_back(x_at(e, y), e);
    std::sort(keys.begin(), keys.end(), [this](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first < b.first;
      const double sa = bt_.edges[static_cast<std::size_t>(a.second)].dxdy;
      const double sb = bt_.edges[static_cast<std::size_t>(b.second)].dxdy;
      if (sa != sb) return sa < sb;
      return a.second < b.second;
    });
    const std::size_t n = keys.size();
    for_each_slot_array([n](auto& v) { v.resize(n); });
    for (std::size_t i = 0; i < n; ++i) {
      aet_[i].e = keys[i].second;
      enter(i, keys[i].second);
      uncertify(i);
    }
    auto at = [this](std::size_t i) -> SweepEntry& { return aet_[i]; };
    label_by_parity(bt_, aet_.size(), at);
    open_line_runs(
        pool_, bt_, aet_.size(), at,
        [&keys](std::size_t i) { return keys[i].first; }, y, op_);
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

  /// Certificate oracle, before the beam's sort: evaluate every slot at yt
  /// the way a full sort would, check that no certified pair is inverted
  /// there, and record the full insertion sort's swap list for
  /// validate_swaps.
  void validate_certificates(double yt) {
    auto& xs = sc_.eager;
    xs.clear();
    for (const SweepEntry& a : aet_) xs.emplace_back(x_on(edge(a), yt), a.e);
    for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
      if (yt < cert_[i] && xs[i + 1].first < xs[i].first) {
        ++validate_failures_;
        std::fprintf(stderr,
                     "[psclip] certified pair inverted y=%.17g idx=%zu "
                     "cert=%.17g x=%.17g > %.17g\n",
                     yt, i, cert_[i], xs[i].first, xs[i + 1].first);
      }
    }
    auto& swaps = sc_.eager_swaps;
    swaps.clear();
    for (std::size_t i = 1; i < xs.size(); ++i)
      for (std::size_t j = i; j > 0 && xs[j].first < xs[j - 1].first; --j) {
        swaps.emplace_back(xs[j - 1].second, xs[j].second);
        std::swap(xs[j - 1], xs[j]);
      }
  }

  /// The beam's crossings must be the full sort's swaps, in order.
  void validate_swaps(double yt) {
    const auto& swaps = sc_.eager_swaps;
    const auto& events = sc_.events;
    bool same = swaps.size() == events.size();
    for (std::size_t k = 0; same && k < swaps.size(); ++k)
      same = swaps[k].first == events[k].eu && swaps[k].second == events[k].ev;
    if (!same) {
      ++validate_failures_;
      std::fprintf(stderr,
                   "[psclip] swap list mismatch y=%.17g lazy=%zu eager=%zu\n",
                   yt, events.size(), swaps.size());
    }
  }

  /// The popped ends must be exactly the AET edges whose top is yt.
  void validate_ends(double yt) {
    std::vector<std::int32_t> want;
    for (const SweepEntry& a : aet_)
      if (edge(a).top.y == yt) want.push_back(a.e);
    std::vector<std::int32_t> got = sc_.ends;
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    if (want != got) {
      ++validate_failures_;
      std::fprintf(stderr,
                   "[psclip] end mismatch y=%.17g popped=%zu ending=%zu\n",
                   yt, got.size(), want.size());
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
  /// an index range, by a "key sorts before element i" predicate.
  template <typename KeyLess>
  static std::size_t upper_bound_by(std::size_t n, KeyLess key_less) {
    std::size_t lo = 0, hi = n;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (key_less(mid))
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
  /// those of inserting the minima one by one in (y, x) order. The old
  /// entries' x on yb is evaluated only where a bisection probes and
  /// cannot decide from the edge's x-extent.
  void insert_minima(double yb, double yt, std::size_t& next_min) {
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

      // Bisect the merged view (old AET + staged pairs) with the minima
      // comparator: key (x, slope) against an element's (x on yb, dxdy).
      // An old entry's x is evaluated only when x is inside its extent.
      const double x = lm.pt.x;
      const std::size_t p = upper_bound_by(old_n + nb.size(), [&](std::size_t i) {
        const auto [st, k] = resolve(i);
        if (st) {
          const double ex = nb[k].x;
          return x != ex ? x < ex : slope_l < edge(nb[k].ent).dxdy;
        }
        if (x < ext_[k].lo) return true;
        if (x > ext_[k].hi) return false;
        const double ex = x_at(aet_[k].e, yb);
        return x != ex ? x < ex : slope_l < edge(aet_[k]).dxdy;
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
    for_each_slot_array([n](auto& v) { v.resize(n); });
    std::size_t src = old_n;  // old slots [0, src) are still in place
    std::size_t dst = n;      // slots [dst, n) are final
    for (std::size_t t = nb.size(); t-- > 0;) {
      const std::size_t base = nb[t].base;
      for_each_slot_array([&](auto& v) {
        std::copy_backward(v.begin() + static_cast<std::ptrdiff_t>(base),
                           v.begin() + static_cast<std::ptrdiff_t>(src),
                           v.begin() + static_cast<std::ptrdiff_t>(dst));
      });
      dst -= src - base + 1;
      src = base;
      aet_[dst] = nb[t].ent;
      enter(dst, nb[t].ent.e);
    }
    // Every pair a new entry belongs to is new: the beam compares it,
    // unless the two edges' x-extents are apart or they diverge from one
    // point fast enough to be apart at yt already.
    std::size_t next_pair = 0;  // pairs below it are done
    for (std::size_t t = 0; t < nb.size(); ++t) {
      const std::size_t d = nb[t].base + t;
      for (std::size_t p = std::max(d > 0 ? d - 1 : 0, next_pair); p <= d;
           ++p) {
        next_pair = p + 1;
        if (p + 1 == n) {
          cert_[p] = kInf;  // no right neighbour
          continue;
        }
        if (ext_[p].hi < ext_[p + 1].lo) {
          cert_[p] = kInf;
          continue;
        }
        const BoundEdge& a = edge(aet_[p]);
        const BoundEdge& b = edge(aet_[p + 1]);
        double c = -kInf;
        if (a.bot == b.bot) c = minimum_certificate(a, b, yb, yt);
        if (c == -kInf)
          c = gap_certificate(a, x_at(aet_[p].e, yb), x_error(a), b,
                              x_at(aet_[p + 1].e, yb), x_error(b), yb);
        if (c <= yt) {
          uncertify(p);  // compared this beam
          continue;
        }
        cert_[p] = c;
        if (c <= std::min(a.top.y, b.top.y))
          heap_push(queue_, {c, aet_[p].e, false});
      }
    }
    sync_pos(nb.front().base);
  }

  /// Pop the beam's events: the ends at yt into sc_.ends, and the
  /// certificates expiring at or below yt into the pairs to check. The end
  /// of an edge whose bound continues is replaced in place by the next
  /// edge's (process_top puts that edge into the slot).
  void pop_events(double yt) {
    auto& ends = sc_.ends;
    ends.clear();
    while (!queue_.empty()) {
      const QueueEntry q = queue_.front();
      if (!(q.at <= yt)) break;
      if (q.end) {
        ends.push_back(q.e);
        const std::int32_t next = bt_.edges[static_cast<std::size_t>(q.e)].next;
        const double top =
            next >= 0 ? bt_.edges[static_cast<std::size_t>(next)].top.y : 0.0;
        if (next >= 0 && !std::isnan(top))
          heap_replace_front(queue_, {top, next, true});
        else
          heap_pop(queue_);
        continue;
      }
      heap_pop(queue_);
      const std::size_t i = slot_of(q.e);
      if (i >= aet_.size() || cert_[i] != q.at) continue;  // stale
      // The two edges of a maximum ending here have equal x (the apex's):
      // no inversion to look for.
      const BoundEdge& a = edge(aet_[i]);
      if (i + 1 < aet_.size() && a.top.y == yt && a.top == edge(aet_[i + 1]).top)
        continue;
      dirty_.push_back(q.e);
    }
    if (validate_) validate_ends(yt);
  }

  /// The crossing point of eu (left below) and ev in the beam (yb, yt).
  [[nodiscard]] Point crossing_point(std::int32_t eu_id, std::int32_t ev_id,
                                     double yb, double yt) const {
    const BoundEdge& eu = bt_.edges[static_cast<std::size_t>(eu_id)];
    const BoundEdge& ev = bt_.edges[static_cast<std::size_t>(ev_id)];
    Point p = geom::line_intersection(eu.bot, eu.top, ev.bot, ev.top);
    // A genuine crossing lies inside the beam up to rounding; allow
    // one beam height of slack before distrusting the division.
    const double slack = yt - yb;
    if (!(p.y >= yb - slack && p.y <= yt + slack) || !std::isfinite(p.x)) {
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
    return p;
  }

  /// Sort position i of the beam's insertion sort, evaluated on first use.
  SortSlot& sort_slot(std::size_t i, double yt) {
    SortSlot& s = sort_[i];
    if (s.stamp != sc_.stamp) s = {x_at(aet_[i].e, yt), aet_[i].e, sc_.stamp};
    return s;
  }

  /// Slot i's x on the beam top, reusing the sort's value when position i
  /// still holds slot i's edge.
  double top_x(std::size_t i, double yt) {
    SortSlot& s = sort_[i];
    if (s.stamp != sc_.stamp || s.e != aet_[i].e)
      s = {x_at(aet_[i].e, yt), aet_[i].e, sc_.stamp};
    return s.x;
  }

  /// Find the beam's crossings: replay the insertion sort of the AET by x
  /// at yt on the pairs that need a check. Every other adjacent pair holds
  /// a certificate reaching yt, so it does not invert and its step of the
  /// full sort swaps nothing. A pair that inverts starts a run of the full
  /// sort's steps, which goes on until an element does not move; the
  /// run's positions are evaluated as the sort reads them. The swap list —
  /// every adjacent transposition, in order — is a full sort's, NaN
  /// comparisons included (they are never certified).
  void process_intersections(double yb, double yt) {
    const std::size_t n = aet_.size();
    if (sort_.size() < n) sort_.resize(n, SortSlot{0.0, -1, 0});
    if (++sc_.stamp == 0) {  // the stamp wrapped: forget every position
      for (SortSlot& s : sort_) s.stamp = 0;
      sc_.stamp = 1;
    }
    if (validate_) validate_certificates(yt);
    std::vector<Crossing>& events = sc_.events;
    events.clear();
    if (dirty_.empty()) {
      // Every pair is certified: the sort swaps nothing.
      if (validate_) validate_swaps(yt);
      ++sorted_beams_;
      return;
    }
    auto& checks = sc_.checks;
    auto& marks = sc_.marks;
    checks.clear();
    for (const std::int32_t e : dirty_) {
      const std::size_t i = slot_of(e);
      if (i + 1 < n) checks.push_back(i + 1);
    }
    dirty_.clear();
    if (checks.size() > 1) sort_unique(checks);

    std::size_t resume = 0;  // the full sort's steps below are replayed
    for (const std::size_t j : checks) {
      if (j < resume) continue;
      std::size_t lo = j;
      std::size_t i = j;
      for (; i < n; ++i) {
        const SortSlot cur = sort_slot(i, yt);
        std::size_t k = i;
        for (; k > 0; --k) {
          const SortSlot& prev = sort_slot(k - 1, yt);
          if (!(cur.x < prev.x)) break;
          events.push_back({prev.e, cur.e, crossing_point(prev.e, cur.e, yb, yt)});
          sort_[k] = prev;
        }
        if (k == i) break;
        sort_[k] = cur;
        lo = std::min(lo, k);
      }
      // Pairs (lo - 1, lo) .. (i - 1, i) changed or were compared.
      const std::size_t last = std::min(i, n - 1);
      for (std::size_t p = lo > 0 ? lo - 1 : 0; p < last; ++p)
        marks.push_back(p);
      resume = i + 1;
    }
    if (validate_) validate_swaps(yt);
    if (events.empty()) {
      // Zero swaps => zero crossings => nothing to emit.
      ++sorted_beams_;
      return;
    }
    // The shared crossing step (seq/sweep_events.hpp) over the flat
    // position index, which is maintained across beams. Its swaps stay
    // inside the runs, whose pairs are certified again at the top.
    intersections_ += static_cast<std::int64_t>(events.size());
    process_crossings(
        pool_, bt_, n, [this](std::size_t i) -> SweepEntry& { return aet_[i]; },
        [this](std::int32_t e) {
          return static_cast<std::size_t>(pos_[static_cast<std::size_t>(e)]);
        },
        [this](std::size_t iu, std::size_t iv) {
          for_each_slot_array([&](auto& v) { std::swap(v[iu], v[iv]); });
          pos_[static_cast<std::size_t>(aet_[iu].e)] =
              static_cast<std::int32_t>(iu);
          pos_[static_cast<std::size_t>(aet_[iv].e)] =
              static_cast<std::int32_t>(iv);
        },
        events, sc_.deferred, op_);
  }

  /// Certify slot p's pair with the next surviving slot to its right
  /// (removed slots carry e = -1) at yt, and queue the certificate if it
  /// expires before both edges end. A pair that cannot be certified is
  /// compared again next beam.
  void certify(std::size_t p, double yt) {
    const std::size_t n = aet_.size();
    std::size_t q = p + 1;
    while (q < n && aet_[q].e < 0) ++q;
    if (q == n) {
      cert_[p] = kInf;  // no right neighbour: nothing can invert
      return;
    }
    if (ext_[p].hi < ext_[q].lo) {
      cert_[p] = kInf;
      return;
    }
    const BoundEdge& a = edge(aet_[p]);
    const BoundEdge& b = edge(aet_[q]);
    double c = -kInf;
    if (a.top == b.top) c = apex_certificate(a, b);
    if (c == -kInf)
      c = gap_certificate(a, top_x(p, yt), x_error(a), b, top_x(q, yt),
                          x_error(b), yt);
    if (c == -kInf) {
      uncertify(p);
      return;
    }
    cert_[p] = c;
    if (c <= std::min(a.top.y, b.top.y))
      heap_push(queue_, {c, aet_[p].e, false});
  }

  /// The surviving slot nearest left of slot i, or none.
  [[nodiscard]] std::size_t surviving_left(std::size_t i, std::size_t none) const {
    while (i > 0 && aet_[i - 1].e < 0) --i;
    return i > 0 ? i - 1 : none;
  }

  /// The beam-top step over the edges ending at the beam top only
  /// (sc_.ends, popped from the queue). Ends are handled in ascending AET
  /// position — the order a walk over the whole AET meets them — with
  /// removals deferred to one compaction pass: a removed slot is marked by
  /// e = -1 until then. Before it, the pairs the beam checked, reordered
  /// or changed here are certified.
  void process_top(double yt) {
    auto& ends = sc_.ends;
    auto& marks = sc_.marks;
    for (std::int32_t& end : ends) end = pos_[static_cast<std::size_t>(end)];
    if (ends.size() > 1) sort_unique(ends);
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
        ext_[i] = extent_of(bt_.edges[static_cast<std::size_t>(e.next)]);
        ++edges_;  // its end is queued already (pop_events)
        pos_[static_cast<std::size_t>(e.next)] = static_cast<std::int32_t>(i);
        // Both of the slot's pairs have a new edge.
        if (const std::size_t l = surviving_left(i, none); l != none)
          certify(l, yt);
        certify(i, yt);
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
      // In general position the partner is adjacent. If ties in x left
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
    // The pairs the beam's sort checked or reordered, and the pairs a
    // removal made adjacent (continuations certified theirs above).
    if (first_removed != none)
      for (const std::int32_t p : ends)
        if (aet_[static_cast<std::size_t>(p)].e < 0)
          if (const std::size_t l =
                  surviving_left(static_cast<std::size_t>(p), none);
              l != none)
            marks.push_back(l);
    if (!marks.empty()) {
      sort_unique(marks);
      for (const std::size_t p : marks)
        if (aet_[p].e >= 0) certify(p, yt);
      marks.clear();
    }
    if (first_removed != none) compact(first_removed);
    prune_queue();
  }

  /// Close the gaps of the removed slots (e = -1) from `first_removed` on
  /// with one block move per surviving run, then refresh the shifted
  /// positions.
  void compact(std::size_t first_removed) {
    const auto& ends = sc_.ends;
    std::size_t w = first_removed;  // next free slot
    std::size_t r = first_removed;  // start of the next surviving run
    auto move_run = [&](std::size_t end) {
      if (r < end)
        for_each_slot_array([&](auto& v) {
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
    for_each_slot_array([w](auto& v) { v.resize(w); });
    sync_pos(first_removed);
  }

  /// Drop stale certificate entries once they outnumber the live ones, so
  /// the queue stays O(|AET|).
  void prune_queue() {
    if (queue_.size() <= 3 * aet_.size() + 64) return;
    std::erase_if(queue_, [this](const QueueEntry& q) {
      if (q.end) return false;
      const std::size_t i = slot_of(q.e);
      return !(i < aet_.size() && cert_[i] == q.at);
    });
    std::make_heap(queue_.begin(), queue_.end(),
                   [](const QueueEntry& a, const QueueEntry& b) {
                     return a.at > b.at;
                   });
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
    sink->add_counter("vatti.x_evals", st->x_evals);
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

VattiScratch& thread_scratch() {
  thread_local VattiScratch scratch;
  return scratch;
}

PolygonSet vatti_clip(const PolygonSet& subject, const PolygonSet& clip,
                      BoolOp op, VattiStats* stats, VattiScratch* scratch) {
  par::fault::inject(par::fault::Site::kVattiSweep);
  VattiScratch& sc = scratch ? *scratch : thread_scratch();
  VattiScratch::Impl& s = *sc.impl;
  build_bounds_into(s.bt, s.ys, subject, clip, s.prep);
  return run_sweep(s.bt, sc, op, stats, SweepWindow{});
}

std::size_t window_bytes(const BoundTable& bt, const SweepWindow& w) {
  const std::size_t min_end = std::min(w.min_end, bt.minima.size());
  const std::size_t active = w.seeds.size() +
                             2 * (min_end - std::min(w.min_begin, min_end));
  constexpr std::size_t kSlotBytes = sizeof(SweepEntry) + sizeof(double) +
                                     sizeof(Extent) + sizeof(SortSlot) +
                                     2 * sizeof(QueueEntry);
  return (w.ys.size() + 2) * sizeof(double) +
         bt.num_edges() * sizeof(std::int32_t) + active * kSlotBytes;
}

PolygonSet vatti_sweep_window(const BoundTable& bt, const SweepWindow& w,
                              BoolOp op, VattiStats* stats,
                              VattiScratch& scratch) {
  par::fault::inject(par::fault::Site::kVattiSweep);
  std::vector<double>& ys = scratch.impl->ys;
  ys.clear();
  ys.reserve(w.ys.size() + 2);
  if (w.y_lo > -kInf) ys.push_back(w.y_lo);
  ys.insert(ys.end(), w.ys.begin(), w.ys.end());
  if (w.y_hi < kInf) ys.push_back(w.y_hi);
  return run_sweep(bt, scratch, op, stats, w);
}

}  // namespace psclip::seq
